package drs

import (
	"math"
	"testing"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
)

func TestCongestionIndex(t *testing.T) {
	lambdas := []float64{50, 50}
	mus := []float64{100, 100}
	// rho = 0.5 and 0.25 → 1 + 1/3.
	x := congestionIndex(lambdas, mus, dataflow.ParallelismVector{1, 2})
	if math.Abs(x-(1+1.0/3)) > 1e-12 {
		t.Fatalf("congestionIndex = %v", x)
	}
	// Unstable station → +Inf.
	if !math.IsInf(congestionIndex([]float64{200}, []float64{100}, dataflow.ParallelismVector{1}), 1) {
		t.Fatal("unstable should be +Inf")
	}
	// Zero-mu station is skipped.
	if congestionIndex([]float64{200}, []float64{0}, dataflow.ParallelismVector{1}) != 0 {
		t.Fatal("zero mu should contribute 0")
	}
}

func TestLatencyFitCoefficients(t *testing.T) {
	f := &latencyFit{}
	// No data: pass-through prior.
	b, c := f.coeffs()
	if b != 0 || c != 1 {
		t.Fatalf("empty fit coeffs = (%v, %v)", b, c)
	}
	// One point: latency split between base and congestion.
	f.add(10, 100)
	b, c = f.coeffs()
	if math.Abs(b-50) > 1e-9 || math.Abs(c-5) > 1e-9 {
		t.Fatalf("single-point coeffs = (%v, %v), want (50, 5)", b, c)
	}
	// One point at x=0: everything is base latency.
	g := &latencyFit{}
	g.add(0, 80)
	b, c = g.coeffs()
	if b != 80 {
		t.Fatalf("x=0 single point b = %v, want 80", b)
	}
	_ = c
	// Two exact points on y = 20 + 3x recover the line.
	h := &latencyFit{}
	h.add(10, 50)
	h.add(30, 110)
	b, c = h.coeffs()
	if math.Abs(b-20) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Fatalf("two-point fit = (%v, %v), want (20, 3)", b, c)
	}
	// A negative slope clamps to zero (latency cannot improve with
	// congestion).
	neg := &latencyFit{}
	neg.add(10, 100)
	neg.add(30, 40)
	_, c = neg.coeffs()
	if c != 0 {
		t.Fatalf("negative slope should clamp, got %v", c)
	}
	// Identical x values fall back to the mean-split heuristic.
	flat := &latencyFit{}
	flat.add(10, 100)
	flat.add(10, 120)
	b, c = flat.coeffs()
	if b <= 0 || c != 1 {
		t.Fatalf("degenerate fit = (%v, %v)", b, c)
	}
	// Non-finite x values are ignored.
	inf := &latencyFit{}
	inf.add(math.Inf(1), 100)
	if len(inf.xs) != 0 {
		t.Fatal("infinite congestion must not enter the fit")
	}
}

func TestLatencyFitPredict(t *testing.T) {
	f := &latencyFit{}
	f.add(10, 50)
	f.add(30, 110)
	lambdas := []float64{90}
	mus := []float64{100}
	// rho = 0.9 at k=1 → x = 9 → predict 20 + 27 = 47.
	got := f.predict(lambdas, mus, dataflow.ParallelismVector{1})
	if math.Abs(got-47) > 1e-9 {
		t.Fatalf("predict = %v, want 47", got)
	}
}

func TestRecommendGreedyReachesTarget(t *testing.T) {
	// Force the greedy loop: a tight target that the initial stable
	// sizing cannot meet under the uncalibrated fit (latency = Σρ/(1−ρ))
	// with slow stations.
	g := chainGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := &flink.OperatorRates{
		Par:                 dataflow.ParallelismVector{1, 1, 1},
		TrueRatePerInstance: []float64{1100, 1050, 1020}, // near-saturated singles
	}
	lambdas := arrivals(g, 1000)
	fit := &latencyFit{}
	rec := allocate(lambdas, m.TrueRatePerInstance, m.Par, 64, 0.9, fit)
	// The recommendation should have driven the model's prediction to
	// the target, and must be larger than the minimal stable sizing
	// (2, 2, 2).
	if rec.Total() <= 6 {
		t.Fatalf("greedy never engaged: %v", rec)
	}
	if pred := fit.predict(lambdas, m.TrueRatePerInstance, rec); math.IsInf(pred, 1) || pred > 0.9 {
		t.Fatalf("recommended config %v predicts %v ms, want <= 0.9", rec, pred)
	}
}

func TestRecommendKeepsCurrentForDeadOperator(t *testing.T) {
	g := chainGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := &flink.OperatorRates{
		Par:                 dataflow.ParallelismVector{2, 5, 2},
		TrueRatePerInstance: []float64{2000, 0, 1200}, // mid reports nothing
	}
	lambdas := arrivals(g, 1000)
	rec := allocate(lambdas, m.TrueRatePerInstance, m.Par, 64, 200, &latencyFit{})
	if rec[1] != 5 {
		t.Fatalf("dead operator should keep parallelism 5, got %v", rec)
	}
}

func TestRunMaxIterationsExhaustion(t *testing.T) {
	// Target latency of 2 ms is infeasible; the run must stop — either at
	// the resource ceiling (every operator at PMax) or when the iteration
	// budget is spent — with LatencyMet=false and one rescale per judged
	// window but (unless the budget ran out) the last.
	g := chainGraph(t)
	e := newEngine(t, g, 2000, nil, 8)
	res := plan(t, VariantTrueRate, e, 2000, 2)
	if res.Report.LatencyMet {
		t.Fatal("2 ms cannot be met")
	}
	it, tr := res.Report.Iterations, res.Report.Trials
	if it < 1 || it > MaxIterations || (tr != it && tr != it-1) {
		t.Fatalf("iterations = %d, rescales = %d", it, tr)
	}
	for _, k := range res.Par {
		if k > 16 {
			t.Fatalf("PMax violated: %v", res.Par)
		}
	}
}
