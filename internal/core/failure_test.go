package core

import (
	"reflect"
	"strings"
	"testing"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

// Failure injection: the policies must degrade gracefully, not crash or
// loop, when reality misbehaves.

// A rate spike in the middle of Algorithm 1's run: trials measured after
// the spike see a different system, but the algorithm must still return a
// usable best-effort result.
func TestAlgorithm1SurvivesRateSpikeMidRun(t *testing.T) {
	sched := kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 1500},
		{FromSec: 2000, Rate: 2600}, // spikes during the BO loop
	}}
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic("in", 4, sched)
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: c, Topic: topic, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 1500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: 1500, TargetLatencyMS: 160, Seed: 62, MaxIterations: 10,
	})
	if err != nil {
		t.Fatalf("rate spike must not abort the algorithm: %v", err)
	}
	if res.Best.Par == nil {
		t.Fatal("no best-effort result")
	}
	if err := res.Best.Par.Validate(c.MaxParallelism()); err != nil {
		t.Fatalf("invalid result: %v", err)
	}
}

// The resource ceiling: a target rate beyond the cluster's total capacity
// must terminate via PMax clamping + the repeat rule, not loop.
func TestOptimizeThroughputAtResourceCeiling(t *testing.T) {
	small, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "tiny", Cores: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic("in", 2, kafka.ConstantRate(1e6))
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: small, Topic: topic,
		NoNoise: true, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 1e6, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReachedTarget {
		t.Fatal("a 1M rps target on 6 cores cannot be reached")
	}
	for _, k := range res.Base {
		if k > small.MaxParallelism() {
			t.Fatalf("base exceeds the ceiling: %v", res.Base)
		}
	}
}

// A dead operator (zero measured rate) must not produce division-by-zero
// parallelism; eq3Step keeps the current parallelism for it.
func TestEq3StepZeroRateOperator(t *testing.T) {
	g := latencyChain(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{2, 3, 2},
		TrueRatePerInstance: []float64{1000, 0, 500}, // mid reports nothing
	}
	next, err := eq3Step(g, m, 2000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if next[1] != 3 {
		t.Fatalf("zero-rate operator should keep its parallelism, got %v", next)
	}
}

// Restart storms: reconfiguring every policy window must still leave the
// measurement machinery consistent (windows reset, no negative values).
func TestRestartStorm(t *testing.T) {
	e := engineFor(t, latencyChain(t), 1500)
	par := dataflow.ParallelismVector{2, 6, 3}
	for i := 0; i < 20; i++ {
		par[1] = 5 + i%3 // change something every round
		if err := e.SetParallelism(par); err != nil {
			t.Fatal(err)
		}
		m := e.MeasureSteady(15, 30)
		if m.ThroughputRPS < 0 || m.ProcLatencyMS < 0 || m.LagRecords < 0 {
			t.Fatalf("negative measurement after restart storm: %+v", m)
		}
	}
	if e.Restarts() < 10 {
		t.Fatalf("expected many restarts, got %d", e.Restarts())
	}
}

// Machine-kill victim selection must be deterministic: the sorted-first
// up machine, never map-iteration order, never the last machine standing
// — so a seeded chaos schedule reproduces the identical failover.
func TestMachineKillVictimSelectionDeterministic(t *testing.T) {
	run := func() []string {
		// Machines declared out of sorted order on purpose: selection
		// must go by sorted name, not declaration or map order.
		c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
			{Name: "m3", Cores: 16},
			{Name: "m1", Cores: 16},
			{Name: "m2", Cores: 16},
		}})
		if err != nil {
			t.Fatal(err)
		}
		topic, err := kafka.NewTopic("in", 4, kafka.ConstantRate(1500))
		if err != nil {
			t.Fatal(err)
		}
		e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: c, Topic: topic,
			NoNoise: true, Seed: 17,
			Chaos: chaos.New(chaos.Profile{MachineEvents: []chaos.MachineEvent{
				{AtSec: 100, Down: true}, // no machine named: deterministic victim
				{AtSec: 200, Down: true},
				{AtSec: 300, Down: false},
			}}, 17)})
		if err != nil {
			t.Fatal(err)
		}
		var trail []string
		for _, at := range []float64{150, 250, 350} {
			for e.Now() < at {
				e.Run(10)
			}
			trail = append(trail, strings.Join(c.DownMachineNames(), ","))
		}
		return trail
	}
	first := run()
	// m1 is the sorted-first name, so it dies first; m2 follows; the
	// recovery brings back m1 (sorted-first down machine).
	want := []string{"m1", "m1,m2", "m2"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("down set after event %d = %q, want %q (victims must follow sorted IDs)",
				i, first[i], want[i])
		}
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatalf("victim selection not reproducible: %v vs %v", first, second)
	}
}

// Controller with an infeasible latency target: it must keep running
// (best-effort planning each window) without erroring out.
func TestControllerInfeasibleTarget(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{
		TargetLatencyMS: 1, // impossible
		MaxIterations:   3,
		Seed:            64,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctl.Run(e.Now() + 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("controller should keep stepping")
	}
}
