package autrascale_test

import (
	"testing"

	"autrascale"
)

// The facade exposes the full pipeline end to end: workload → engine →
// throughput optimization → Algorithm 1 → controller types.
func TestFacadeEndToEnd(t *testing.T) {
	spec := autrascale.WordCount()
	engine, err := autrascale.NewEngine(spec, autrascale.EngineOptions{Seed: 1, NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := autrascale.OptimizeThroughput(engine, autrascale.ThroughputOptions{
		TargetRate: spec.DefaultRateRPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Base.String() != "(3, 4, 12, 10)" {
		t.Fatalf("base = %v", tr.Base)
	}
	res, err := autrascale.RunAlgorithm1(engine, tr.Base, autrascale.Algorithm1Config{
		TargetRate:      spec.DefaultRateRPS,
		TargetLatencyMS: spec.TargetLatencyMS,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.LatencyMet {
		t.Fatalf("best trial misses latency: %+v", res.Best)
	}
	if res.Model == nil {
		t.Fatal("no benefit model")
	}
	if v := res.Model.PredictMean(res.Best.Par.Floats()); v <= 0 {
		t.Fatalf("model prediction = %v", v)
	}
}

func TestFacadeCustomJob(t *testing.T) {
	g := autrascale.NewGraph("custom")
	if err := g.AddOperator(autrascale.Operator{
		Name: "src", Kind: autrascale.KindSource, Selectivity: 1,
		Profile: autrascale.Profile{BaseRatePerInstance: 1000, CPUPerInstance: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOperator(autrascale.Operator{
		Name: "sink", Kind: autrascale.KindSink,
		Profile: autrascale.Profile{BaseRatePerInstance: 500, CPUPerInstance: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", "sink"); err != nil {
		t.Fatal(err)
	}
	topic, err := autrascale.NewTopic("in", 4, autrascale.ConstantRate(800))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := autrascale.NewCustomEngine(autrascale.EngineConfig{
		Graph:   g,
		Cluster: autrascale.PaperTestbed(),
		Topic:   topic,
		NoNoise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := engine.RunAndMeasure(10, 60)
	if m.ThroughputRPS <= 0 {
		t.Fatal("no throughput")
	}
}
