package core

import (
	"testing"

	"autrascale/internal/dataflow"
)

// latencyChain builds a 3-op chain whose latency responds to parallelism:
// high queueing at the base sizing, relief from extra instances, and a
// communication-cost upturn far out.
func latencyChain(t testing.TB) *dataflow.Graph {
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
	_ = g.Connect("src", "mid")
	_ = g.Connect("mid", "sink")
	return g
}

func TestRunAlgorithm1Validation(t *testing.T) {
	e := engineFor(t, latencyChain(t), 2000)
	if _, err := RunAlgorithm1(e, dataflow.ParallelismVector{1, 1, 1}, Algorithm1Config{}); err == nil {
		t.Fatal("missing targets should error")
	}
	cfg := Algorithm1Config{TargetRate: 2000, TargetLatencyMS: 150}
	if _, err := RunAlgorithm1(e, dataflow.ParallelismVector{1, 1}, cfg); err == nil {
		t.Fatal("wrong base length should error")
	}
	bad := cfg
	bad.OverAllocationW = -1
	if _, err := RunAlgorithm1(e, dataflow.ParallelismVector{1, 1, 1}, bad); err == nil {
		t.Fatal("negative w should error")
	}
}

func TestRunAlgorithm1MeetsQoS(t *testing.T) {
	e := engineFor(t, latencyChain(t), 2000)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 160, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Par == nil {
		t.Fatal("no best trial")
	}
	if !res.Best.LatencyMet {
		t.Fatalf("best trial misses latency: %+v", res.Best)
	}
	if res.Best.ThroughputRPS < 2000*0.97 {
		t.Fatalf("best trial misses throughput: %v", res.Best.ThroughputRPS)
	}
	// The search space is bounded below by the base configuration.
	for _, trial := range res.Trials {
		for i, k := range trial.Par {
			if k < tr.Base[i] {
				t.Fatalf("trial %v below base %v", trial.Par, tr.Base)
			}
		}
	}
	// Bootstrap design ran before BO: M uniform + N one-hot (deduped).
	if res.BootstrapRuns == 0 {
		t.Fatal("bootstrap phase did not run")
	}
	// Model is available for the library.
	if res.Model == nil {
		t.Fatal("missing fitted model")
	}
	// Engine left on the selected configuration.
	if !e.Parallelism().Equal(res.Best.Par) {
		t.Fatalf("engine at %v, best %v", e.Parallelism(), res.Best.Par)
	}
}

func TestRunAlgorithm1TerminationThreshold(t *testing.T) {
	// Default α=0.5, w=0.25 gives the paper's 0.9 benefit threshold.
	e := engineFor(t, latencyChain(t), 2000)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 160, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold != 0.9 {
		t.Fatalf("threshold = %v, want 0.9", res.Threshold)
	}
	if res.Met && (res.Best.Score < 0.9 || !res.Best.LatencyMet) {
		t.Fatalf("Met=true but best trial %+v does not satisfy Eq. 9", res.Best)
	}
}

func TestRunAlgorithm1InfeasibleTargetStillReturnsBestEffort(t *testing.T) {
	e := engineFor(t, latencyChain(t), 2000)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// 1 ms is impossible: fixed latencies alone exceed it.
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 1, Seed: 5, MaxIterations: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("cannot meet a 1 ms target")
	}
	if res.Best.Par == nil {
		t.Fatal("must still return the best-effort trial")
	}
	if res.Iterations != 6 {
		t.Fatalf("should exhaust the budget: %d", res.Iterations)
	}
}

func TestSelectBestPrefersLatencyMet(t *testing.T) {
	trials := []Trial{
		{Par: dataflow.ParallelismVector{9, 9}, Score: 0.99, LatencyMet: false},
		{Par: dataflow.ParallelismVector{2, 2}, Score: 0.7, LatencyMet: true},
		{Par: dataflow.ParallelismVector{3, 3}, Score: 0.8, LatencyMet: true},
	}
	best := selectBest(trials)
	if !best.Par.Equal(dataflow.ParallelismVector{3, 3}) {
		t.Fatalf("selectBest = %v", best.Par)
	}
	// With no latency-met trial the best score wins.
	none := selectBest(trials[:1])
	if !none.Par.Equal(dataflow.ParallelismVector{9, 9}) {
		t.Fatalf("selectBest fallback = %v", none.Par)
	}
}

func TestAlgorithm1ModelPredictsScores(t *testing.T) {
	e := engineFor(t, latencyChain(t), 2000)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 160, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stored model should reproduce the scores of evaluated trials
	// reasonably (it is the benefit model saved to the library).
	var worst float64
	for _, trial := range res.Trials {
		got := res.Model.PredictMean(trial.Par.Floats())
		if d := abs(got - trial.Score); d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Fatalf("model max |error| on training points = %v", worst)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
