package core

import (
	"fmt"
	"strings"
	"testing"

	"autrascale/internal/chaos"
	"autrascale/internal/metrics"
	"autrascale/internal/workloads"
)

// acceptProfile is the issue's acceptance scenario: 30% rescale failures
// plus one machine kill mid-run.
func acceptProfile() chaos.Profile {
	return chaos.Profile{
		Name:            "acceptance",
		RescaleFailProb: 0.3,
		MachineEvents:   []chaos.MachineEvent{{AtSec: 1800, Down: true}},
	}
}

// chaosControllerRun drives the WordCount job through one
// simulated hour of the MAPE loop under a chaos profile and returns the
// full decision record.
func chaosControllerRun(t *testing.T, profile chaos.Profile, seed uint64) ([]Event, []DecisionReport, *metrics.Store) {
	t.Helper()
	spec := workloads.WordCount()
	store := metrics.NewStore()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Seed:  seed,
		Store: store,
		Chaos: chaos.New(profile, seed),
		// Two attempts per rescale so a double failure (p = 0.09) is
		// likely somewhere in a planning session's many trials — the
		// degraded path must fire, not just the retry path.
		RescaleMaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(e, ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS,
		MaxIterations:   8,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctl.Run(3600)
	if err != nil {
		t.Fatalf("the controller must degrade gracefully under chaos, not fail: %v", err)
	}
	return events, ctl.Decisions(), store
}

// The issue's acceptance criterion: under 30% rescale failures and a
// mid-run machine kill the controller never panics or wedges, failed
// rescales are retried with backoff (visible in rescale_retries_total),
// full failures surface as Degraded decisions, and the same seed
// reproduces the identical decision sequence.
func TestControllerChaosAcceptance(t *testing.T) {
	const seed = 1
	events, decisions, store := chaosControllerRun(t, acceptProfile(), seed)

	if len(events) == 0 {
		t.Fatal("controller produced no events — it wedged")
	}
	last := events[len(events)-1]
	if last.TimeSec < 3000 {
		t.Fatalf("controller stopped stepping at t=%.0f", last.TimeSec)
	}

	tags := map[string]string{"job": "wordcount"}
	if store.Counter("rescale_retries", tags).Value() == 0 {
		t.Fatal("30% rescale failures over an hour must produce retries")
	}

	var degradedEvents, degradedReports int
	for _, ev := range events {
		if ev.Action == ActionDegraded {
			degradedEvents++
			if len(ev.Par) == 0 {
				t.Fatal("degraded event must report the kept configuration")
			}
		}
	}
	for _, rep := range decisions {
		if rep.Degraded {
			degradedReports++
			if len(rep.Chosen) == 0 {
				t.Fatal("degraded report must record the last-known-good configuration")
			}
			if !strings.Contains(rep.Explain(), "DEGRADED") {
				t.Fatal("Explain() must surface degradation")
			}
		}
	}
	if degradedEvents == 0 || degradedReports == 0 {
		t.Fatalf("expected degraded decisions (events=%d, reports=%d)", degradedEvents, degradedReports)
	}
	if got := store.Counter("degraded_decisions", tags).Value(); got != float64(degradedReports) {
		t.Fatalf("degraded_decisions_total = %v, want %d", got, degradedReports)
	}

	// A degraded decision must never wedge the loop: some later event has
	// to exist (the controller re-plans on a following tick).
	firstDegraded := -1
	for i, ev := range events {
		if ev.Action == ActionDegraded {
			firstDegraded = i
			break
		}
	}
	if firstDegraded == len(events)-1 && len(events) > 1 {
		t.Fatal("controller stopped right after its first degraded decision")
	}

	// Reproducibility: the same seed yields the identical sequence.
	events2, decisions2, _ := chaosControllerRun(t, acceptProfile(), seed)
	if a, b := eventSignature(events), eventSignature(events2); a != b {
		t.Fatalf("same seed, different event sequences:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if a, b := decisionSignature(decisions), decisionSignature(decisions2); a != b {
		t.Fatalf("same seed, different decision sequences:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// The chaos gate: under the heavy profile (rescale failures and delays,
// window drops and corruption, a machine kill, a partition stall) the
// controller rides through the hour on every seed of the matrix,
// retrying failed rescales on the way, and still decides after the
// profile's last scheduled fault (the machine's recovery at 2400 s).
// Planning sessions span most of the hour here, so the last decision
// lands at 2420, 2820 and 2455 s.
func TestControllerChaosHeavySoak(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			events, _, store := chaosControllerRun(t, chaos.Heavy(), seed)
			if len(events) == 0 || events[len(events)-1].TimeSec < 2400 {
				t.Fatalf("controller stopped deciding before the faults ended (%d events)", len(events))
			}
			if store.Counter("rescale_retries", map[string]string{"job": "wordcount"}).Value() == 0 {
				t.Fatal("the heavy profile's rescale failures must produce retries")
			}
		})
	}
}

func eventSignature(events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%.0f %s %s %.3f %.3f %s\n",
			ev.TimeSec, ev.Action, ev.Par, ev.ProcLatencyMS, ev.ThroughputRPS, ev.Reason)
	}
	return b.String()
}

func decisionSignature(reports []DecisionReport) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "%.0f %s degraded=%v chosen=%s score=%.6f\n",
			r.TimeSec, r.Action, r.Degraded, r.Chosen, r.Score)
	}
	return b.String()
}
