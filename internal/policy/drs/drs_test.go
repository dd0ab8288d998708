package drs

import (
	"math"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

func chainGraph(t testing.TB) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph("chain")
	ops := []dataflow.Operator{
		{Name: "src", Kind: dataflow.KindSource, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 2000, FixedLatencyMS: 5, QueueScaleMS: 15, CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "map", Kind: dataflow.KindTransform, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 800, SyncCost: 0.03, FixedLatencyMS: 10, QueueScaleMS: 30, CommCostPerParallelism: 0.5, CPUPerInstance: 1, MemPerInstanceMB: 128}},
		{Name: "sink", Kind: dataflow.KindSink, Selectivity: 0,
			Profile: dataflow.Profile{BaseRatePerInstance: 1200, FixedLatencyMS: 5, QueueScaleMS: 15, CPUPerInstance: 1, MemPerInstanceMB: 128}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.Connect("src", "map")
	_ = g.Connect("map", "sink")
	return g
}

func newEngine(t testing.TB, g *dataflow.Graph, rate float64, par dataflow.ParallelismVector) *flink.Engine {
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
	e, err := flink.New(flink.Config{Graph: g, Cluster: c, Topic: topic, NoNoise: true,
		Seed: 11, InitialParallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy(VariantTrueRate, 0, 100, 100); err == nil {
		t.Fatal("PMax 0 should error")
	}
	if _, err := NewPolicy(VariantTrueRate, 10, 0, 100); err == nil {
		t.Fatal("rate 0 should error")
	}
	if _, err := NewPolicy(VariantTrueRate, 10, 100, 0); err == nil {
		t.Fatal("latency 0 should error")
	}
}

func TestVariantString(t *testing.T) {
	if VariantTrueRate.String() != "DRS(true)" || VariantObservedRate.String() != "DRS(observed)" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant should still stringify")
	}
}

func TestPredictLatency(t *testing.T) {
	lambdas := []float64{100, 100}
	mus := []float64{200, 150}
	lat := predictLatencyMS(lambdas, mus, dataflow.ParallelismVector{1, 1})
	if lat <= 0 || math.IsInf(lat, 0) {
		t.Fatalf("predictLatencyMS = %v", lat)
	}
	// More servers → lower predicted latency.
	lat2 := predictLatencyMS(lambdas, mus, dataflow.ParallelismVector{2, 2})
	if lat2 >= lat {
		t.Fatalf("more servers should predict lower latency: %v vs %v", lat2, lat)
	}
	// Unstable station → +Inf.
	if !math.IsInf(predictLatencyMS([]float64{300}, []float64{100}, dataflow.ParallelismVector{1}), 1) {
		t.Fatal("unstable should be +Inf")
	}
	// Zero service rate is skipped rather than crashing.
	if v := predictLatencyMS([]float64{0}, []float64{0}, dataflow.ParallelismVector{1}); v != 0 {
		t.Fatalf("zero-mu station should contribute 0, got %v", v)
	}
}

func TestRecommendStability(t *testing.T) {
	g := chainGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, _ := NewPolicy(VariantTrueRate, 64, 4000, 200)
	m := flink.Measurement{
		Par:                     dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance:     []float64{2000, 800, 1200},
		ObservedRatePerInstance: []float64{500, 200, 300},
	}
	rec, err := p.Recommend(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// Every station must be stable at the target rate.
	for i, mu := range m.TrueRatePerInstance {
		if 4000 >= mu*float64(rec[i]) {
			t.Fatalf("operator %d unstable: k=%d mu=%v", i, rec[i], mu)
		}
	}
}

func TestObservedVariantOverProvisions(t *testing.T) {
	g := chainGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := flink.Measurement{
		Par:                     dataflow.ParallelismVector{2, 2, 2},
		TrueRatePerInstance:     []float64{2000, 800, 1200},
		ObservedRatePerInstance: []float64{700, 350, 500}, // idle-inflated
	}
	pt, _ := NewPolicy(VariantTrueRate, 64, 1400, 200)
	po, _ := NewPolicy(VariantObservedRate, 64, 1400, 200)
	rt, err := pt.Recommend(g, m)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := po.Recommend(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Total() <= rt.Total() {
		t.Fatalf("observed-rate DRS should over-provision: true=%v observed=%v", rt, ro)
	}
}

func TestRecommendDimensionError(t *testing.T) {
	g := chainGraph(t)
	_ = g.Validate()
	p, _ := NewPolicy(VariantTrueRate, 64, 1000, 100)
	if _, err := p.Recommend(g, flink.Measurement{Par: dataflow.ParallelismVector{1},
		TrueRatePerInstance: []float64{1}}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestRunReachesLatencyTarget(t *testing.T) {
	g := chainGraph(t)
	e := newEngine(t, g, 2000, nil)
	p, err := NewPolicy(VariantTrueRate, e.Cluster().MaxParallelism(), 2000, 150)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LatencyMet {
		t.Fatalf("DRS should find a latency-meeting config: %+v", res)
	}
	if len(res.History) == 0 || res.Final.Total() == 0 {
		t.Fatalf("missing history/final: %+v", res)
	}
}

func TestRunStopsAtResourceCeiling(t *testing.T) {
	g := chainGraph(t)
	e := newEngine(t, g, 2000, nil)
	// Impossible 1ms target with a tiny PMax: must stop without meeting it.
	p, _ := NewPolicy(VariantTrueRate, 4, 2000, 1)
	res, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMet {
		t.Fatal("1ms target must be unreachable")
	}
	for _, k := range res.Final {
		if k > 4 {
			t.Fatalf("PMax violated: %v", res.Final)
		}
	}
}
