package core

import (
	"regexp"
	"strings"
	"testing"

	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/kafka"
)

// A failed or empty fit leaves fitFinalModel's result nil. Storing it must
// leave the library empty: a nil model filed under a rate would be
// dereferenced by the next transfer's PredictMean and the next capture.
func TestStoreModelSkipsNilModel(t *testing.T) {
	p, err := NewBOPolicy(BOConfig{TargetLatencyMS: 160, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var m *gp.Regressor
	p.storeModel(1000, m)
	if n := p.Library().Len(); n != 0 {
		t.Fatalf("library holds %d models after storing a nil fit, want 0", n)
	}
}

// recordingPolicy hands the controller its policy's plans and keeps each
// plan's result, trial log included.
type recordingPolicy struct {
	Policy
	plans []PlanResult
}

func (p *recordingPolicy) Plan(e *flink.Engine, req PlanRequest) (PlanResult, error) {
	res, err := p.Policy.Plan(e, req)
	p.plans = append(p.plans, res)
	return res, err
}

// A BO plan's trial log runs in its phases' order — Algorithm 1: Eq. 3's
// windows (none on a QoS replan), the bootstrap set, then the BO
// iterations; Algorithm 2: Eq. 3's windows, the run at the base, then
// the BO iterations — and every count on the report Plan returns, and on
// the one the controller retains, is that count's view of the log.
func TestBOPlanLogsItsPhasesInOrder(t *testing.T) {
	sched := kafka.StepSchedule{Steps: []kafka.Step{{FromSec: 0, Rate: 1500}, {FromSec: 1200, Rate: 2000}}}
	e := controllerEngine(t, sched)
	bo, err := NewBOPolicy(BOConfig{TargetLatencyMS: 160, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pol := &recordingPolicy{Policy: bo}
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(10800); err != nil {
		t.Fatal(err)
	}
	patterns := map[ActionKind]*regexp.Regexp{
		ActionAlgorithm1: regexp.MustCompile(`^(eq3 )*(bootstrap )+(bo )+$`),
		ActionAlgorithm2: regexp.MustCompile(`^(eq3 )+seed (bo )*$`),
	}
	reports := ctl.Decisions()
	if len(reports) != len(pol.plans) {
		t.Fatalf("%d reports retained for %d plans", len(reports), len(pol.plans))
	}
	seen := map[ActionKind]bool{}
	for i, r := range reports {
		log := pol.plans[i].Trials
		if planned := pol.plans[i].Report; planned.Trials != r.Trials || planned.Windows != r.Windows {
			t.Errorf("plan %d: Plan's report counts %d trials in %d windows, the retained one %d in %d",
				i, planned.Trials, planned.Windows, r.Trials, r.Windows)
		}
		var phases strings.Builder
		for _, tr := range log {
			phases.WriteString([]string{"eq3 ", "bootstrap ", "seed ", "bo ", "ds2 ", "drs "}[tr.Phase])
		}
		if !patterns[r.Action].MatchString(phases.String()) {
			t.Fatalf("plan %d (%s): phases %q", i, r.Action, phases.String())
		}
		seen[r.Action] = true
		eq3 := countPhase(log, PhaseEq3)
		eq3Judged := ThroughputResult{History: log[:eq3], ReachedTarget: r.ReachedTarget, TerminatedByRepeat: r.TerminatedByRepeat}.Iterations()
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"ThroughputIters", r.ThroughputIters, eq3Judged},
			{"BootstrapRuns", r.BootstrapRuns, countPhase(log, PhaseBootstrap)},
			{"Iterations", r.Iterations, countPhase(log, PhaseBO)},
			{"len(Iters)", len(r.Iters), countPhase(log, PhaseBO)},
			{"Trials", r.Trials, len(log) - eq3},
			{"Windows", r.Windows, len(log)},
		} {
			if c.got != c.want {
				t.Errorf("plan %d (%s): %s = %d, its view of the log is %d", i, r.Action, c.name, c.got, c.want)
			}
		}
	}
	if !seen[ActionAlgorithm1] || !seen[ActionAlgorithm2] {
		t.Fatalf("plans covered %v, want both algorithms", seen)
	}
}
