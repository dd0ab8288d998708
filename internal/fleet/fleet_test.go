package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/workloads"
)

// decisionKey flattens the decision fields that must be bit-identical
// across runs into one comparable string.
func decisionKey(d core.DecisionReport) string {
	return fmt.Sprintf("t=%v action=%s rate=%v base=%s chosen=%s met=%t iters=%d boots=%d reason=%q",
		d.TimeSec, d.Action, d.RateRPS, d.Base.String(), d.Chosen.String(),
		d.Met, d.Iterations, d.BootstrapRuns, d.Reason)
}

// testWorkload is a small three-operator chain that converges in a few
// BO iterations, so fleet tests stay fast. Same shape as the core
// package's latencyChain fixture. Its graph is validated, like a
// built-in workload's.
func testWorkload(t testing.TB) workloads.Spec {
	t.Helper()
	g := dataflow.NewGraph("lat-chain")
	ops := []dataflow.Operator{
		{Name: "src", Kind: dataflow.KindSource, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 1000, SyncCost: 0.01, FixedLatencyMS: 10,
			QueueScaleMS: 2, StateCostMS: 20, CommCostPerParallelism: 0.5,
			CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "mid", Kind: dataflow.KindTransform, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 300, SyncCost: 0.01, FixedLatencyMS: 20,
			QueueScaleMS: 3, StateCostMS: 60, CommCostPerParallelism: 0.8,
			CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "sink", Kind: dataflow.KindSink, Selectivity: 0, Profile: dataflow.Profile{
			BaseRatePerInstance: 500, SyncCost: 0.01, FixedLatencyMS: 10,
			QueueScaleMS: 2, StateCostMS: 30, CommCostPerParallelism: 0.5,
			CPUPerInstance: 1, MemPerInstanceMB: 128}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "mid"}, {"mid", "sink"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return workloads.Spec{Name: "lat-chain", Graph: g,
		DefaultRateRPS: 1500, TargetLatencyMS: 160}
}

func testJob(t testing.TB, name string, rate float64) JobSpec {
	return JobSpec{
		Name:            name,
		Workload:        testWorkload(t),
		RateRPS:         rate,
		Machines:        2,
		CoresPerMachine: 16,
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing TotalCores should error")
	}
	f, err := New(Config{TotalCores: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(JobSpec{}); err == nil {
		t.Fatal("nameless job should error")
	}
	if err := f.Submit(JobSpec{Name: "x"}); err == nil {
		t.Fatal("graphless job should error")
	}
}

// A job name is a store tag value, encoded as "job=NAME,k=v": a ',' or
// '=' in it would forge another series' labels, so Submit refuses it
// (and Restore, through the same validate; TestRestoreRejectsInvalidSpec).
func TestSubmitRejectsTagSeparatorsInName(t *testing.T) {
	f, err := New(Config{TotalCores: 64, Seed: 11, Store: metrics.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a,operator=mid", "a=b", "a,b", "tab\tname", "nul\x00", "line\u2028sep"} {
		err := f.Submit(testJob(t, name, 1500))
		if err == nil || !strings.Contains(err.Error(), "name must not contain") {
			t.Fatalf("Submit(%q) = %v, want a name error", name, err)
		}
	}
	if used := f.Snapshot().UsedCores; used != 0 {
		t.Fatalf("refused names hold %d cores", used)
	}
	if err := f.Submit(testJob(t, "word count-01 ü", 1500)); err != nil {
		t.Fatalf("a printable name without separators: %v", err)
	}
}

func TestFleetAdmissionControl(t *testing.T) {
	store := metrics.NewStore()
	f, err := New(Config{TotalCores: 64, Seed: 11, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "a", 1500)); err != nil { // 32 cores
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "a", 1500)); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate submit: %v, want ErrDuplicateJob", err)
	}
	if err := f.Submit(testJob(t, "b", 1500)); err != nil { // 64 cores now used
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "c", 1500)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("over-capacity submit: %v, want ErrAdmissionRejected", err)
	}
	if got := store.Counter("autrascale.fleet.jobs_rejected", nil).Value(); got != 1 {
		t.Fatalf("fleet.jobs_rejected = %v, want 1", got)
	}

	// Draining a job frees its capacity for the next submission.
	if err := f.Drain("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "c", 1500)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	st := f.Snapshot()
	if st.UsedCores != 64 {
		t.Fatalf("UsedCores = %d, want 64", st.UsedCores)
	}
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Decisions("a"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Decisions after Remove: %v, want ErrUnknownJob", err)
	}
}

// A job whose input rate collapses to zero makes its controller error
// (TargetRate must be > 0); the fleet must quarantine it at the round
// barrier and keep stepping everyone else.
// Events serves a job's most recent event and nothing older: none before
// its first step, one after each round, and none for a restored job until
// it steps again.
func TestFleetEventsServesLastStep(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "a", 320e3)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Events("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}
	lastOf := func(f *Fleet) []core.Event {
		t.Helper()
		evs, err := f.Events("a")
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	if evs := lastOf(f); len(evs) != 0 {
		t.Fatalf("before the first step: %d events, want 0", len(evs))
	}
	prev := 0.0
	// The first event served, and a copy taken when it was served: the
	// fleet reuses its last event's Par vector step after step, so an
	// event that shared it would change with later rounds.
	var first, firstCopy core.Event
	for f.Now() < 900 {
		f.Round()
		evs := lastOf(f)
		if len(evs) != 1 || evs[0].TimeSec < prev || evs[0].Par == nil {
			t.Fatalf("after a round at %v s: %+v, want the one event of the latest step", f.Now(), evs)
		}
		if first.Par == nil {
			first, firstCopy = evs[0], evs[0]
			firstCopy.Par = evs[0].Par.Clone()
		}
		prev = evs[0].TimeSec
	}
	if !reflect.DeepEqual(first, firstCopy) {
		t.Fatalf("a served event changed after further rounds: %+v, was %+v", first, firstCopy)
	}
	evs := lastOf(f)
	evs[0].Par[0] = -1
	if lastOf(f)[0].Par[0] == -1 {
		t.Fatal("a served event shares its Par with the fleet")
	}
	restored, err := Restore(f.PersistState(), RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if evs := lastOf(restored); len(evs) != 0 {
		t.Fatalf("restored job before its first step: %d events, want 0", len(evs))
	}
	restored.RunUntil(restored.Now() + 3600)
	if evs := lastOf(restored); len(evs) != 1 {
		t.Fatalf("restored job after stepping: %d events, want 1", len(evs))
	}
}

func TestFleetQuarantineKeepsOthersRunning(t *testing.T) {
	store := metrics.NewStore()
	f, err := New(Config{TotalCores: 128, Seed: 3, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	bad := testJob(t, "bad", 1500)
	bad.Schedule = kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 1500}, {FromSec: 600, Rate: 0},
	}}
	if err := f.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "good", 1500)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(7200)

	jobs, _ := f.JobsPage(0, 0)
	byName := map[string]JobStatus{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	if byName["bad"].State != StateQuarantined {
		t.Fatalf("bad job state = %v, want quarantined (err=%q)",
			byName["bad"].State, byName["bad"].Error)
	}
	if byName["bad"].Error == "" {
		t.Fatal("quarantined job should expose its error")
	}
	if byName["good"].State != StateRunning {
		t.Fatalf("good job state = %v, want running", byName["good"].State)
	}
	if byName["good"].SimulatedSec < 7000 {
		t.Fatalf("good job stalled at %.0fs; quarantine must not block the fleet",
			byName["good"].SimulatedSec)
	}
	if got := store.Counter("autrascale.fleet.jobs_quarantined", nil).Value(); got != 1 {
		t.Fatalf("fleet.jobs_quarantined = %v, want 1", got)
	}
	// A quarantined job keeps its capacity until drained; draining it
	// must not publish its models.
	if err := f.Drain("bad"); err != nil {
		t.Fatal(err)
	}
	if st := f.Snapshot(); st.UsedCores != 32 {
		t.Fatalf("UsedCores after draining quarantined job = %d, want 32", st.UsedCores)
	}
}

// Cross-job warm start: after one job has planned at a rate, a new job
// with the same workload signature must bootstrap from the shared
// library (Algorithm 2 on its very first plan) and reach the Eq. 9
// termination threshold in fewer BO iterations than the cold start did.
func TestFleetWarmStartFewerIterations(t *testing.T) {
	store := metrics.NewStore()
	f, err := New(Config{TotalCores: 128, Seed: 21, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "cold", 1500)); err != nil {
		t.Fatal(err)
	}
	// One round is enough: the first MAPE step runs the whole Algorithm 1
	// session, however long it takes in simulated time.
	f.Round()
	coldDecisions, err := f.Decisions("cold")
	if err != nil {
		t.Fatal(err)
	}
	if len(coldDecisions) == 0 {
		t.Fatal("cold job produced no decision")
	}
	cold := coldDecisions[0]
	if cold.Action != "algorithm1" {
		t.Fatalf("cold job's first action = %v, want algorithm1", cold.Action)
	}

	// The cold job's model reaches the shared library at the round
	// barrier; a same-signature submission near that rate warm-starts.
	if err := f.Submit(testJob(t, "warm", 1700)); err != nil {
		t.Fatal(err)
	}
	f.Round()
	jobs, _ := f.JobsPage(0, 0)
	var warmStatus JobStatus
	for _, j := range jobs {
		if j.Name == "warm" {
			warmStatus = j
		}
	}
	if !warmStatus.WarmStarted {
		t.Fatal("second job should have warm-started from the shared library")
	}
	if warmStatus.WarmSourceRate != cold.RateRPS {
		t.Fatalf("warm source rate = %v, want the cold job's %v",
			warmStatus.WarmSourceRate, cold.RateRPS)
	}
	warmDecisions, err := f.Decisions("warm")
	if err != nil {
		t.Fatal(err)
	}
	if len(warmDecisions) == 0 {
		t.Fatal("warm job produced no decision")
	}
	warm := warmDecisions[0]
	if warm.Action != "algorithm2" {
		t.Fatalf("warm job's first action = %v, want algorithm2 (reason %q)",
			warm.Action, warm.Reason)
	}
	coldRuns := cold.Iterations + cold.BootstrapRuns
	warmRuns := warm.Iterations + warm.BootstrapRuns
	if warmRuns >= coldRuns {
		t.Fatalf("warm start ran %d configurations, cold ran %d — transfer saved nothing",
			warmRuns, coldRuns)
	}
	if got := store.Counter("autrascale.fleet.warmstarts", nil).Value(); got != 1 {
		t.Fatalf("fleet.warmstarts = %v, want 1", got)
	}
	if rates := f.SharedModelRates()["lat-chain"]; len(rates) == 0 {
		t.Fatal("shared library is empty after a published model")
	}
}

// The worker count must never change decisions: a serial fleet and a
// maximally parallel fleet with the same seed produce identical per-job
// decision sequences.
func TestFleetParallelMatchesSerial(t *testing.T) {
	run := func(workers int) map[string][]string {
		f, err := New(Config{TotalCores: 512, Workers: workers, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		rates := []float64{1400, 1500, 1600, 1700, 1800, 1900, 2000, 2100}
		for i, r := range rates {
			if err := f.Submit(testJob(t, "job-"+string(rune('a'+i)), r)); err != nil {
				t.Fatal(err)
			}
		}
		f.RunUntil(9000)
		out := map[string][]string{}
		for _, name := range f.JobNames() {
			decisions, err := f.Decisions(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions {
				out[name] = append(out[name], decisionKey(d))
			}
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("job counts differ: %d vs %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got := parallel[name]
		if len(got) != len(want) {
			t.Fatalf("%s: decision counts differ: serial %d, parallel %d", name, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s decision %d differs:\n serial   %s\n parallel %s",
					name, i, want[i], got[i])
			}
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	a := deriveSeed(42, "job-a")
	b := deriveSeed(42, "job-b")
	a2 := deriveSeed(43, "job-a")
	if a == b || a == a2 || b == a2 {
		t.Fatalf("derived seeds collide: %x %x %x", a, b, a2)
	}
	if a != deriveSeed(42, "job-a") {
		t.Fatal("deriveSeed is not deterministic")
	}
}
