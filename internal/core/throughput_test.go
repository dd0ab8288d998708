package core

import (
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

// chain builds src -> mid -> sink with given per-instance base rates; the
// sink can carry an external cap.
func chain(t testing.TB, rates [3]float64, capSink float64) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph("chain")
	mk := func(name string, rate float64, kind dataflow.OperatorKind, sel float64, cap float64) dataflow.Operator {
		return dataflow.Operator{Name: name, Kind: kind, Selectivity: sel, Profile: dataflow.Profile{
			BaseRatePerInstance: rate, SyncCost: 0.01, FixedLatencyMS: 10, QueueScaleMS: 2,
			ExternalCapRPS: cap, CPUPerInstance: 1, MemPerInstanceMB: 128,
		}}
	}
	for _, op := range []dataflow.Operator{
		mk("src", rates[0], dataflow.KindSource, 1, 0),
		mk("mid", rates[1], dataflow.KindTransform, 1, 0),
		mk("sink", rates[2], dataflow.KindSink, 0, capSink),
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("src", "mid")
	_ = g.Connect("mid", "sink")
	return g
}

func engineFor(t testing.TB, g *dataflow.Graph, rate float64) *flink.Engine {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic("in", 4, kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: g, Cluster: c, Topic: topic, NoNoise: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptimizeThroughputValidation(t *testing.T) {
	e := engineFor(t, chain(t, [3]float64{1000, 500, 800}, 0), 1000)
	if _, err := OptimizeThroughput(e, ThroughputOptions{}); err == nil {
		t.Fatal("missing TargetRate should error")
	}
}

func TestOptimizeThroughputReachesTarget(t *testing.T) {
	e := engineFor(t, chain(t, [3]float64{1000, 500, 800}, 0), 2000)
	res, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("should reach target: %+v", res)
	}
	if res.Iterations > 4 {
		t.Fatalf("iterations = %d, paper observes <= 4", res.Iterations)
	}
	if res.BestThroughputRPS < 2000*0.98 {
		t.Fatalf("best throughput = %v", res.BestThroughputRPS)
	}
	// Base must keep every operator stable at the target.
	m := e.MeasureSteady(30, 60)
	if m.ThroughputRPS < 2000*0.98 {
		t.Fatalf("engine not left at a sustaining config: %v", m.ThroughputRPS)
	}
	// Eq. 3 sizing should be near-minimal: mid needs ~4-5 instances at
	// 500 rps base rate.
	if res.Base[1] < 4 || res.Base[1] > 6 {
		t.Fatalf("mid parallelism = %d, want 4..6", res.Base[1])
	}
}

func TestOptimizeThroughputTerminatesOnRepeatWithExternalCap(t *testing.T) {
	// Sink capped at 600 rps; target 2000 unreachable. DS2 would loop;
	// AuTraScale must stop via the repeated-configuration rule and pick
	// the cheapest max-throughput configuration from history.
	e := engineFor(t, chain(t, [3]float64{1000, 500, 800}, 600), 2000)
	res, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReachedTarget {
		t.Fatal("capped pipeline cannot reach the target")
	}
	if !res.TerminatedByRepeat {
		t.Fatalf("expected repeated-config termination: %+v", res)
	}
	if res.BestThroughputRPS > 610 {
		t.Fatalf("best throughput = %v, cap is 600", res.BestThroughputRPS)
	}
	// History review: the selected base must be the smallest config among
	// those within 2% of the best throughput.
	for _, h := range res.History {
		if h.ThroughputRPS >= res.BestThroughputRPS*0.98 && h.Par.Total() < res.Base.Total() {
			t.Fatalf("review missed a cheaper config: %v (%v rps) vs base %v",
				h.Par, h.ThroughputRPS, res.Base)
		}
	}
}

func TestReviewHistory(t *testing.T) {
	hist := []ThroughputIter{
		{Par: dataflow.ParallelismVector{1, 1}, ThroughputRPS: 100},
		{Par: dataflow.ParallelismVector{4, 4}, ThroughputRPS: 500},
		{Par: dataflow.ParallelismVector{2, 3}, ThroughputRPS: 495}, // within 2% but cheaper
		{Par: dataflow.ParallelismVector{8, 8}, ThroughputRPS: 502},
	}
	base, thr := reviewHistory(hist)
	if !base.Equal(dataflow.ParallelismVector{2, 3}) {
		t.Fatalf("review picked %v, want (2, 3)", base)
	}
	if thr != 495 {
		t.Fatalf("throughput = %v", thr)
	}
	if b, _ := reviewHistory(nil); b != nil {
		t.Fatal("empty history should return nil")
	}
}

func TestEq3StepSelectivity(t *testing.T) {
	g := chain(t, [3]float64{1000, 500, 800}, 0)
	// FlatMap-like mid: 3 outputs per input.
	gg := dataflow.NewGraph("sel")
	p := dataflow.Profile{BaseRatePerInstance: 1000, CPUPerInstance: 1}
	_ = gg.AddOperator(dataflow.Operator{Name: "src", Selectivity: 3, Profile: p})
	_ = gg.AddOperator(dataflow.Operator{Name: "sink", Selectivity: 0, Profile: p})
	_ = gg.Connect("src", "sink")
	if err := gg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{1, 1},
		TrueRatePerInstance: []float64{1000, 1000},
	}
	next, err := eq3Step(gg, m, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if next[1] != 3 {
		t.Fatalf("sink sized %d, want 3 (selectivity propagation)", next[1])
	}
	// Graph/measurement mismatch errors.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := eq3Step(g, flink.Measurement{Par: dataflow.ParallelismVector{1},
		TrueRatePerInstance: []float64{1}}, 1000, 64); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestEq3StepCapsProjectionAtCapacity(t *testing.T) {
	// When an upstream operator cannot keep up even at the new
	// parallelism (PMax clamp), downstream sizing must use its capped
	// output, not the raw target.
	g := chain(t, [3]float64{1000, 10, 800}, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := flink.Measurement{
		Par:                 dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance: []float64{1000, 10, 800},
	}
	next, err := eq3Step(g, m, 100000, 8) // mid clamped to 8 → 80 rps out
	if err != nil {
		t.Fatal(err)
	}
	if next[1] != 8 {
		t.Fatalf("mid should clamp to PMax: %v", next)
	}
	if next[2] != 1 {
		t.Fatalf("sink sized %d; should be sized for mid's capped output (~80 rps)", next[2])
	}
}
