package ds2

import (
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

func chainGraph(t testing.TB, capJoin float64) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph("chain")
	join := dataflow.Profile{BaseRatePerInstance: 400, FixedLatencyMS: 5, CPUPerInstance: 1, MemPerInstanceMB: 128}
	join.ExternalCapRPS = capJoin
	ops := []dataflow.Operator{
		{Name: "src", Kind: dataflow.KindSource, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 2000, FixedLatencyMS: 2, CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "map", Kind: dataflow.KindTransform, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 800, SyncCost: 0.02, FixedLatencyMS: 5, CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "join", Kind: dataflow.KindSink, Selectivity: 0, Profile: join},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("src", "map")
	_ = g.Connect("map", "join")
	return g
}

func newEngine(t testing.TB, g *dataflow.Graph, rate float64) *flink.Engine {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic("in", 8, kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: g, Cluster: c, Topic: topic, NoNoise: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy(0, 100); err == nil {
		t.Fatal("PMax 0 should error")
	}
	if _, err := NewPolicy(10, 0); err == nil {
		t.Fatal("rate 0 should error")
	}
}

func TestStepLinearRule(t *testing.T) {
	g := chainGraph(t, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPolicy(64, 4000)
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance: []float64{2000, 800, 400},
	}
	next, err := p.Step(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(4000/2000)=2, ceil(4000/800)=5, ceil(4000/400)=10.
	want := dataflow.ParallelismVector{2, 5, 10}
	if !next.Equal(want) {
		t.Fatalf("Step = %v, want %v", next, want)
	}
}

func TestStepSelectivityPropagation(t *testing.T) {
	g := dataflow.NewGraph("sel")
	p1 := dataflow.Profile{BaseRatePerInstance: 1000, CPUPerInstance: 1}
	_ = g.AddOperator(dataflow.Operator{Name: "src", Selectivity: 3, Profile: p1})
	_ = g.AddOperator(dataflow.Operator{Name: "sink", Selectivity: 0, Profile: p1})
	_ = g.Connect("src", "sink")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPolicy(64, 1000)
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{1, 1},
		TrueRatePerInstance: []float64{1000, 1000},
	}
	next, err := p.Step(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// Sink sees 3x the source rate.
	if next[1] != 3 {
		t.Fatalf("sink parallelism = %d, want 3", next[1])
	}
}

func TestStepEdgeCases(t *testing.T) {
	g := chainGraph(t, 0)
	_ = g.Validate()
	p, _ := NewPolicy(4, 1e6) // tiny PMax, huge rate
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance: []float64{2000, 0, 400}, // op with zero rate
	}
	next, err := p.Step(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] != 4 || next[2] != 4 {
		t.Fatalf("PMax clamp failed: %v", next)
	}
	if next[1] != 1 {
		t.Fatalf("zero-rate operator should keep current parallelism, got %d", next[1])
	}
	// Wrong measurement size errors.
	if _, err := p.Step(g, flink.Measurement{Par: dataflow.ParallelismVector{1},
		TrueRatePerInstance: []float64{1}}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestRunConvergesOnUncappedJob(t *testing.T) {
	g := chainGraph(t, 0)
	e := newEngine(t, g, 3000)
	p, err := NewPolicy(e.Cluster().MaxParallelism(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if !p.TargetMet(last.ThroughputRPS) {
		t.Fatalf("DS2 should converge on an uncapped job: %+v", res)
	}
	if res.Iterations > 5 {
		t.Fatalf("DS2 took %d iterations, want few", res.Iterations)
	}
	if last.ThroughputRPS < 3000*0.97 {
		t.Fatalf("final throughput = %v, want ~3000", last.ThroughputRPS)
	}
}

func TestRunHitsIterationBoundOnCappedJob(t *testing.T) {
	// Redis-like cap at 500 rps while the target is 3000: DS2 keeps
	// growing the join operator and never converges (the paper's
	// infinite-loop failure mode, bounded here by MaxIterations).
	g := chainGraph(t, 500)
	e := newEngine(t, g, 3000)
	p, _ := NewPolicy(e.Cluster().MaxParallelism(), 3000)
	res, err := p.Run(e, RunOptions{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.History {
		if p.TargetMet(h.ThroughputRPS) {
			t.Fatalf("iteration %d met the target: DS2 must not converge on an externally capped job", i+1)
		}
	}
	if res.Iterations != 6 {
		t.Fatalf("iterations = %d, want the full budget 6", res.Iterations)
	}
	// The capped operator's parallelism must have been inflated.
	first := res.History[0].Par[2]
	last := res.Final[2]
	if last <= first {
		t.Fatalf("capped operator parallelism should inflate: %d -> %d", first, last)
	}
}

func TestTargetMet(t *testing.T) {
	p, _ := NewPolicy(10, 1000)
	if !p.TargetMet(1000) || !p.TargetMet(985) {
		t.Fatal("throughput within epsilon should pass")
	}
	if p.TargetMet(900) {
		t.Fatal("10% short should fail")
	}
}
