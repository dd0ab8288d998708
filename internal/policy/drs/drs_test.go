package drs

import (
	"math"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/core"
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

func newEngine(t testing.TB, g *dataflow.Graph, rate float64, par dataflow.ParallelismVector, cores int) *flink.Engine {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: cores}, {Name: "m2", Cores: cores},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
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

// plan runs one DRS planning session from a trial window at rate.
func plan(t *testing.T, v Variant, e *flink.Engine, rate, targetMS float64) core.PlanResult {
	t.Helper()
	m, err := core.MeasureTrial(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Variant: v, TargetLatencyMS: targetMS})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Plan(e, core.PlanRequest{
		Trigger: core.TriggerQoS,
		RateRPS: rate,
		Window:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := New(Config{Variant: VariantTrueRate}); err == nil {
		t.Fatal("latency 0 should error")
	}
}

func TestVariantString(t *testing.T) {
	if VariantTrueRate.String() != "drs-true" || VariantObservedRate.String() != "drs-observed" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant should still stringify")
	}
}

func TestRecommendStability(t *testing.T) {
	g := chainGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := flink.OperatorRates{
		Par:                 dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance: []float64{2000, 800, 1200},
	}
	lambdas := arrivals(g, 4000)
	rec := allocate(lambdas, m.TrueRatePerInstance, m.Par, 64, 200, &latencyFit{})
	// Every station must be stable at the target rate.
	for i, mu := range m.TrueRatePerInstance {
		if 4000 >= mu*float64(rec[i]) {
			t.Fatalf("operator %d unstable: k=%d mu=%v", i, rec[i], mu)
		}
	}
}

// Started over-provisioned, the true-rate variant sheds instances while
// the observed-rate one stays where it is: idle instances depress the
// observed rates, so its "minimal" plan never shrinks (paper Fig. 7).
func TestObservedVariantOverProvisions(t *testing.T) {
	g := chainGraph(t)
	start := dataflow.Uniform(3, 12)
	pt := plan(t, VariantTrueRate, newEngine(t, g, 1400, start.Clone(), 32), 1400, 200)
	po := plan(t, VariantObservedRate, newEngine(t, g, 1400, start.Clone(), 32), 1400, 200)
	if po.Par.Total() <= pt.Par.Total() {
		t.Fatalf("observed-rate DRS should over-provision: true=%v observed=%v", pt.Par, po.Par)
	}
	if !po.Par.Equal(start) {
		t.Fatalf("observed-rate DRS should stay at the over-provisioned start %v, got %v", start, po.Par)
	}
}

func TestRunReachesLatencyTarget(t *testing.T) {
	g := chainGraph(t)
	e := newEngine(t, g, 2000, nil, 32)
	res := plan(t, VariantTrueRate, e, 2000, 150)
	if !res.Report.LatencyMet || !res.Report.Met {
		t.Fatalf("DRS should find a latency-meeting config: %+v", res.Report)
	}
	if res.Report.Iterations == 0 || res.Par.Total() == 0 {
		t.Fatalf("missing iterations/final: %+v", res.Report)
	}
}

func TestRunStopsAtResourceCeiling(t *testing.T) {
	g := chainGraph(t)
	// Impossible 1ms target on a 4-slot cluster: must stop without
	// meeting it.
	e := newEngine(t, g, 2000, nil, 2)
	res := plan(t, VariantTrueRate, e, 2000, 1)
	if res.Report.LatencyMet {
		t.Fatal("1ms target must be unreachable")
	}
	for _, k := range res.Par {
		if k > 4 {
			t.Fatalf("PMax violated: %v", res.Par)
		}
	}
}

func TestStableUtilizationAndRho(t *testing.T) {
	if rho(1, 1, 2) != 0.5 {
		t.Fatalf("rho = %v", rho(1, 1, 2))
	}
	if rho(2, 1, 2) < 1 {
		t.Fatal("rho = 1 is not a stable utilization")
	}
	if !math.IsInf(rho(1, 0, 2), 1) {
		t.Fatal("zero capacity should be +Inf")
	}
}
