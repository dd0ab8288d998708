package flink

import (
	"math"
	"testing"

	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
)

// diamondGraph builds src -> (left | right) -> join: the stream fans out
// to both branches (Flink-style broadcast to each successor) and the join
// receives both.
func diamondGraph(t testing.TB, leftSel, rightSel float64) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph("diamond")
	p := func(rate float64) dataflow.Profile {
		return dataflow.Profile{BaseRatePerInstance: rate, FixedLatencyMS: 5,
			QueueScaleMS: 1, CPUPerInstance: 1, MemPerInstanceMB: 128}
	}
	ops := []dataflow.Operator{
		{Name: "src", Kind: dataflow.KindSource, Selectivity: 1, Profile: p(5000)},
		{Name: "left", Kind: dataflow.KindTransform, Selectivity: leftSel, Profile: p(3000)},
		{Name: "right", Kind: dataflow.KindTransform, Selectivity: rightSel, Profile: p(3000)},
		{Name: "join", Kind: dataflow.KindSink, Selectivity: 0, Profile: p(4000)},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"src", "left"}, {"src", "right"}, {"left", "join"}, {"right", "join"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// operatorIndex returns the index of the named operator of g, or -1.
func operatorIndex(g *dataflow.Graph, name string) int {
	for i := 0; i < g.NumOperators(); i++ {
		if g.Operator(i).Name == name {
			return i
		}
	}
	return -1
}

func TestDiamondArrivalRates(t *testing.T) {
	// With selectivities 0.5 and 0.25, the join sees 0.75x the source
	// rate; both branches see the full source rate.
	g := diamondGraph(t, 0.5, 0.25)
	topic, err := kafka.NewTopic("in", 4, kafka.ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true,
		InitialParallelism: dataflow.ParallelismVector{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := e.RunAndMeasure(10, 60)
	if math.Abs(m.ThroughputRPS-1000) > 1 {
		t.Fatalf("throughput = %v", m.ThroughputRPS)
	}
	left := operatorIndex(g, "left")
	right := operatorIndex(g, "right")
	join := operatorIndex(g, "join")
	if math.Abs(m.LambdaRPS[left]-1000) > 1 || math.Abs(m.LambdaRPS[right]-1000) > 1 {
		t.Fatalf("branch lambdas = %v / %v, want 1000 each", m.LambdaRPS[left], m.LambdaRPS[right])
	}
	if math.Abs(m.LambdaRPS[join]-750) > 1 {
		t.Fatalf("join lambda = %v, want 750", m.LambdaRPS[join])
	}
}

func TestDiamondBottleneckOnJoin(t *testing.T) {
	// Selectivity 1 on both branches doubles the join's arrivals: at
	// source rate r the join sees 2r, so its capacity (4000/inst) caps
	// the job at 2000 rps with everything at parallelism 1.
	g := diamondGraph(t, 1, 1)
	topic, err := kafka.NewTopic("in", 4, kafka.ConstantRate(1e9))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	m := e.RunAndMeasure(10, 60)
	if math.Abs(m.ThroughputRPS-2000) > 5 {
		t.Fatalf("diamond throughput = %v, want ~2000 (join-bound)", m.ThroughputRPS)
	}
	// Doubling the join's parallelism should roughly double throughput
	// (up to the branch capacity of 3000).
	if err := e.SetParallelism(dataflow.ParallelismVector{1, 1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	m2 := e.MeasureSteady(15, 60)
	if m2.ThroughputRPS < 2900 {
		t.Fatalf("after join scale-up throughput = %v, want ~3000 (branch-bound)", m2.ThroughputRPS)
	}
}
