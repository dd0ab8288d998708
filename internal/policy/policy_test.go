package policy

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/policy/drs"
	"autrascale/internal/policy/ds2"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() must be sorted, got %v", names)
	}
	want := []string{"bo", "drs-observed", "drs-true", "ds2", "ds2-online"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, name := range names {
		pol, err := Build(name, Env{TargetLatencyMS: 200, Seed: 3})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("Build(%q).Name() = %q — registry names must round-trip", name, pol.Name())
		}
	}
	// BO and DRS need a latency target; DS2 does not.
	for _, name := range []string{"bo", "drs-true", "drs-observed"} {
		if _, err := Build(name, Env{}); err == nil {
			t.Fatalf("Build(%q) without TargetLatencyMS should error", name)
		}
	}
	for _, name := range []string{"ds2", "ds2-online"} {
		if _, err := Build(name, Env{}); err != nil {
			t.Fatalf("Build(%q) without TargetLatencyMS: %v", name, err)
		}
	}
}

// Lookup is the one way a name becomes a builder: every registered name
// resolves to a builder whose policy reports that name back, and an
// unknown name is one message — the text the restore, admin-API and
// tournament tests compare their own errors against.
func TestLookup(t *testing.T) {
	for _, name := range Names() {
		build, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		pol, err := build(Env{TargetLatencyMS: 200, Seed: 3})
		if err != nil {
			t.Fatalf("Lookup(%q) builder: %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("Lookup(%q) builds %q — registry names must round-trip", name, pol.Name())
		}
	}
	const want = `unknown policy "nope" (have [bo drs-observed drs-true ds2 ds2-online])`
	build, err := Lookup("nope")
	if build != nil || err == nil || err.Error() != want {
		t.Fatalf("Lookup(nope) = builder %t, err %v; want no builder and %q", build != nil, err, want)
	}
	if _, berr := Build("nope", Env{}); berr == nil || berr.Error() != want {
		t.Fatalf("Build(nope) = %v, want Lookup's error %q", berr, want)
	}
}

// randomDAG mirrors the core package's property-test generator: operator
// 0 is the sole source, every later operator has an earlier predecessor,
// the final operator is a sink.
func randomDAG(t *testing.T, rng *stat.RNG) *dataflow.Graph {
	t.Helper()
	n := 3 + rng.Intn(4) // 3..6 operators
	g := dataflow.NewGraph(fmt.Sprintf("rand-dag-%d", n))
	for i := 0; i < n; i++ {
		op := dataflow.Operator{
			Name:        fmt.Sprintf("op%d", i),
			Kind:        dataflow.KindTransform,
			Selectivity: 0.5 + rng.Float64(),
			Profile: dataflow.Profile{
				BaseRatePerInstance: 100 + 1900*rng.Float64(),
				SyncCost:            0.05 * rng.Float64(),
				FixedLatencyMS:      1 + 10*rng.Float64(),
				CPUPerInstance:      1,
				MemPerInstanceMB:    64,
			},
		}
		switch i {
		case 0:
			op.Kind = dataflow.KindSource
		case n - 1:
			op.Kind = dataflow.KindSink
			op.Selectivity = 0
		}
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.Connect(fmt.Sprintf("op%d", rng.Intn(i)), fmt.Sprintf("op%d", i)); err != nil {
			t.Fatal(err)
		}
		if i >= 2 && rng.Float64() < 0.4 {
			_ = g.Connect(fmt.Sprintf("op%d", rng.Intn(i)), fmt.Sprintf("op%d", i))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("random DAG invalid: %v", err)
	}
	return g
}

// propEngine builds a deterministic engine for trial: the DAG, cluster,
// and rate are pure functions of the trial number, so two calls with the
// same trial are replicas.
func propEngine(t *testing.T, trial int) (*flink.Engine, float64) {
	t.Helper()
	rng := stat.NewRNG(uint64(4000 + trial))
	g := randomDAG(t, rng)
	cl, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "p1", Cores: 8},
		{Name: "p2", Cores: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rate := 500 + 4500*rng.Float64()
	topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: g, Cluster: cl, Topic: topic,
		NoNoise: true, Seed: uint64(trial)})
	if err != nil {
		t.Fatal(err)
	}
	return e, rate
}

// planOnce builds the named policy and runs one full planning session
// against a fresh trial engine, returning the result and the cluster
// ceiling.
func planOnce(t *testing.T, name string, trial int) (core.PlanResult, int) {
	t.Helper()
	e, rate := propEngine(t, trial)
	pol, err := Build(name, Env{TargetLatencyMS: 150, Seed: uint64(trial)})
	if err != nil {
		t.Fatal(err)
	}
	m := e.MeasureSteady(30, 120)
	res, err := pol.Plan(e, core.PlanRequest{
		Trigger: core.TriggerRateChange,
		RateRPS: rate,
		Window:  m,
		TimeSec: e.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, e.Cluster().MaxParallelism()
}

// The adapter properties (issue spec): on arbitrary valid DAGs every
// baseline policy terminates within its iteration budget, never plans
// parallelism outside [1, P_max], reports the ActionPolicy label, and is
// deterministic in (seed, window) — a replica engine replays the exact
// same plan.
func TestBaselinePoliciesPropertyRandomDAGs(t *testing.T) {
	bounds := map[string]int{
		"ds2": ds2.MaxIterations, "ds2-online": ds2.MaxIterations,
		"drs-true": drs.MaxIterations, "drs-observed": drs.MaxIterations,
	}
	for _, name := range []string{"ds2", "ds2-online", "drs-true", "drs-observed"} {
		name, bound := name, bounds[name]
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				res, pmax := planOnce(t, name, trial)
				if res.Par == nil {
					t.Fatalf("trial %d: nil plan", trial)
				}
				for op, k := range res.Par {
					if k < 1 || k > pmax {
						t.Fatalf("trial %d: op%d parallelism %d outside [1, %d]", trial, op, k, pmax)
					}
				}
				if res.Report.Action != core.ActionPolicy {
					t.Fatalf("trial %d: action = %v, want %v", trial, res.Report.Action, core.ActionPolicy)
				}
				if res.Report.Iterations < 1 || res.Report.Iterations > bound {
					t.Fatalf("trial %d: %d iterations, budget is %d", trial, res.Report.Iterations, bound)
				}
				// Determinism: an identically-seeded replica engine must
				// replay the identical decision, bit for bit.
				again, _ := planOnce(t, name, trial)
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("trial %d: same (seed, window) produced different plans:\n %+v\n %+v",
						trial, res.Report, again.Report)
				}
			}
		})
	}
}

// DS2's fixed-point termination (issue spec): once the linear rule has
// settled, re-planning from a fresh steady window must reach the rule's
// fixed point — repeated sessions stop rescaling instead of drifting.
func TestDS2FixedPointOnRandomDAGs(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		e, rate := propEngine(t, trial)
		pol, err := Build("ds2", Env{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		var prev dataflow.ParallelismVector
		for session := 0; session < 3; session++ {
			m := e.MeasureSteady(30, 120)
			res, err := pol.Plan(e, core.PlanRequest{
				Trigger: core.TriggerRateChange,
				RateRPS: rate,
				Window:  m,
				TimeSec: e.Now(),
			})
			if err != nil {
				t.Fatalf("trial %d session %d: %v", trial, session, err)
			}
			prev = res.Par
		}
		// A settled rule must be idempotent: one more session from the
		// fixed point neither iterates past the first Step nor rescales.
		m := e.MeasureSteady(30, 120)
		res, err := pol.Plan(e, core.PlanRequest{
			Trigger: core.TriggerRateChange,
			RateRPS: rate,
			Window:  m,
			TimeSec: e.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Par.Equal(prev) {
			t.Fatalf("trial %d: plan drifted after settling: %v -> %v", trial, prev, res.Par)
		}
		if res.Report.Trials != 0 {
			t.Fatalf("trial %d: settled rule still rescaled %d time(s)", trial, res.Report.Trials)
		}
	}
}

// Plug-in policy decisions are counted under action="policy", and their
// loop counts stay out of the BO-only iteration and margin histograms.
func TestPolicyDecisionsCounted(t *testing.T) {
	store := metrics.NewStore()
	spec := workloads.WordCount()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{Seed: 11, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := Build("ds2", Env{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(e, core.ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS,
		Seed:            11,
		Policy:          pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(1800); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Decisions()) == 0 {
		t.Fatal("DS2 never planned; the test needs at least one decision")
	}
	job := e.JobName()
	counted := store.Counter("autrascale.decisions",
		map[string]string{"job": job, "action": string(core.ActionPolicy)}).Value()
	if want := float64(len(ctl.Decisions())); counted != want {
		t.Fatalf(`autrascale.decisions{action="policy"} = %v, want %v`, counted, want)
	}
	var expo strings.Builder
	if err := store.WriteExposition(&expo); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"autrascale_bo_iterations", "autrascale_decision_margin"} {
		count := name + `_count{job="` + job + `"} `
		if strings.Contains(expo.String(), count) && !strings.Contains(expo.String(), count+"0\n") {
			t.Fatalf("%s holds observations from a non-BO policy:\n%s", name, expo.String())
		}
	}
}

// Every window a planner measures goes through core.MeasureTrial and is
// accounted for by its report: per policy, a rate step on WordCount is
// planned twice (for BO, Algorithm 1 then Algorithm 2) and each Plan's
// flink.measure_steady spans must equal the windows its DecisionReport
// derives — DS2 offline and DRS one per trial, ds2-online none, BO its
// trials plus Eq. 3's.
func TestEveryPlanningWindowIsAccounted(t *testing.T) {
	spec := workloads.WordCount()
	const stepSec = 20000 // after the first session, before the second
	rates := []float64{0.7 * spec.DefaultRateRPS, spec.DefaultRateRPS}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			tr := trace.New(1 << 14)
			e, err := workloads.NewEngine(spec, workloads.EngineOptions{
				Seed:     5,
				Tracer:   tr,
				Schedule: kafka.StepSchedule{Steps: []kafka.Step{{Rate: rates[0]}, {FromSec: stepSec, Rate: rates[1]}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			pol, err := Build(name, Env{TargetLatencyMS: spec.TargetLatencyMS, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i, rate := range rates {
				if i > 0 {
					e.Run(stepSec - e.Now())
				}
				m, err := core.MeasureTrial(e, nil)
				if err != nil {
					t.Fatal(err)
				}
				var before uint64 // span ids run up: this plan's come after
				for _, sp := range tr.Snapshot(0) {
					before = max(before, sp.ID)
				}
				res, err := pol.Plan(e, core.PlanRequest{Trigger: core.TriggerRateChange, RateRPS: rate, Window: m, TimeSec: e.Now()})
				if err != nil {
					t.Fatal(err)
				}
				measured := 0
				for _, sp := range tr.Snapshot(0) {
					if sp.ID > before && sp.Name == "flink.measure_steady" {
						measured++
					}
				}
				if tr.Dropped() != 0 {
					t.Fatalf("plan %d: the span ring dropped %d spans", i, tr.Dropped())
				}
				if want := accountedWindows(name, res.Report); measured != want {
					t.Fatalf("plan %d at %.0f rps: %d windows measured, report accounts for %d (%+v)",
						i, rate, measured, want, res.Report)
				}
			}
		})
	}
}

// accountedWindows is the number of trial windows a report says its
// session measured.
func accountedWindows(name string, r core.DecisionReport) int {
	switch name {
	case "ds2-online":
		return 0 // one shot, judged by the controller's next monitor window
	case "bo":
		eq3 := r.ThroughputIters
		if !r.ReachedTarget && !r.TerminatedByRepeat {
			eq3++ // at its bound Eq. 3 measures one window it never records
		}
		return r.Trials + eq3
	}
	return r.Trials
}
