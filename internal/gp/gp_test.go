package gp

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"autrascale/internal/mat"
	"autrascale/internal/stat"
)

func TestKernelBasics(t *testing.T) {
	kernels := []Kernel{
		Matern52{Variance: 2, LengthScale: 1.5},
		matern32{Variance: 2, LengthScale: 1.5},
		rbf{Variance: 2, LengthScale: 1.5},
	}
	x := []float64{1, 2}
	y := []float64{3, -1}
	for _, k := range kernels {
		// k(x,x) = variance.
		if got := k.Eval(x, x); math.Abs(got-2) > 1e-12 {
			t.Fatalf("%s: k(x,x) = %v, want 2", k, got)
		}
		// Symmetry.
		if k.Eval(x, y) != k.Eval(y, x) {
			t.Fatalf("%s: kernel not symmetric", k)
		}
		// Positivity and bounded by variance.
		v := k.Eval(x, y)
		if v <= 0 || v > 2 {
			t.Fatalf("%s: k(x,y) = %v out of (0, variance]", k, v)
		}
		if k.String() == "" {
			t.Fatalf("empty String for %T", k)
		}
	}
}

// Property: kernel value decreases with distance (monotone radial decay).
func TestKernelMonotoneDecay(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		d1 := r.Float64() * 5
		d2 := d1 + r.Float64()*5 + 1e-9
		for _, k := range []Kernel{
			Matern52{Variance: 1, LengthScale: 1},
			matern32{Variance: 1, LengthScale: 1},
			rbf{Variance: 1, LengthScale: 1},
		} {
			near := k.Eval([]float64{0}, []float64{d1})
			far := k.Eval([]float64{0}, []float64{d2})
			if far >= near {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitValidation(t *testing.T) {
	r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-6)
	if err := r.Fit(nil, nil); err != ErrNoData {
		t.Fatalf("Fit(nil) err = %v", err)
	}
	if err := r.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := r.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
	if _, _, err := r.Predict([]float64{0}); err != ErrNoData {
		t.Fatalf("Predict before Fit err = %v", err)
	}
	if r.PredictMean([]float64{0}) != 0 {
		t.Fatal("PredictMean before Fit should be 0")
	}
}

func TestNewPanicsOnBadNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for noise <= 0")
		}
	}()
	New(rbf{Variance: 1, LengthScale: 1}, 0)
}

// Property: the posterior interpolates training points (low noise) and has
// near-zero variance there.
func TestPosteriorInterpolates(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stat.NewRNG(seed)
		n := 3 + rng.Intn(8)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{float64(i) + rng.Float64()*0.2}
			ys[i] = math.Sin(xs[i][0]) + 2
		}
		r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-8)
		if err := r.Fit(xs, ys); err != nil {
			return false
		}
		for i := range xs {
			m, v, err := r.Predict(xs[i])
			if err != nil {
				return false
			}
			if math.Abs(m-ys[i]) > 1e-3 || v > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPosteriorRevertsToMeanFarAway(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{5, 7, 6}
	r := New(Matern52{Variance: 1, LengthScale: 0.5}, 1e-6)
	if err := r.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	m, v, err := r.Predict([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-6) > 1e-6 { // mean of targets
		t.Fatalf("far-field mean = %v, want ~6", m)
	}
	if math.Abs(v-1) > 1e-6 { // prior variance
		t.Fatalf("far-field variance = %v, want ~1", v)
	}
}

func TestPredictionAccuracyOnSmooth(t *testing.T) {
	// Fit sin over [0, 3] and check interpolation error at midpoints.
	var xs [][]float64
	var ys []float64
	for x := 0.0; x <= 3.0; x += 0.25 {
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-8)
	if err := r.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for x := 0.1; x < 3.0; x += 0.2 {
		m, _, _ := r.Predict([]float64{x})
		if math.Abs(m-math.Sin(x)) > 0.01 {
			t.Fatalf("prediction at %v = %v, want %v", x, m, math.Sin(x))
		}
	}
}

func TestPredictStd(t *testing.T) {
	r := New(rbf{Variance: 4, LengthScale: 1}, 1e-6)
	if err := r.Fit([][]float64{{0}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	_, std, err := r.PredictStd([]float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(std-2) > 1e-6 {
		t.Fatalf("far-field std = %v, want 2", std)
	}
}

func TestLogMarginalLikelihood(t *testing.T) {
	r := New(rbf{Variance: 1, LengthScale: 1}, 1e-4)
	if _, err := r.LogMarginalLikelihood(); err != ErrNoData {
		t.Fatal("LML before fit should error")
	}
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{0, 0.8, 0.9, 0.1}
	if err := r.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	lml, err := r.LogMarginalLikelihood()
	if err != nil || math.IsNaN(lml) || math.IsInf(lml, 0) {
		t.Fatalf("LML = %v, err = %v", lml, err)
	}
	// A wildly mis-scaled kernel should have lower LML.
	bad := New(rbf{Variance: 1e6, LengthScale: 1e-4}, 1e-4)
	if err := bad.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	badLML, _ := bad.LogMarginalLikelihood()
	if badLML >= lml {
		t.Fatalf("bad kernel LML %v should be below good kernel LML %v", badLML, lml)
	}
}

func TestFitAutoSelectsReasonableModel(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for x := 0.0; x <= 10; x += 0.5 {
		xs = append(xs, []float64{x})
		ys = append(ys, 3*math.Sin(x/2)+5)
	}
	r, err := FitAuto(xs, ys, FitOptions{Family: FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.25; x < 10; x += 1.5 {
		m := r.PredictMean([]float64{x})
		want := 3*math.Sin(x/2) + 5
		if math.Abs(m-want) > 0.25 {
			t.Fatalf("FitAuto prediction at %v = %v, want %v", x, m, want)
		}
	}
}

func TestFitAutoEmptyInput(t *testing.T) {
	if _, err := FitAuto(nil, nil, FitOptions{}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestFitAutoConstantTargets(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{4, 4, 4}
	r, err := FitAuto(xs, ys, FitOptions{Family: FamilyRBF})
	if err != nil {
		t.Fatal(err)
	}
	if m := r.PredictMean([]float64{1.5}); math.Abs(m-4) > 1e-3 {
		t.Fatalf("constant-target mean = %v, want 4", m)
	}
}

func TestFitAutoFamilies(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{1, 2, 2, 1}
	for _, fam := range []KernelFamily{FamilyMatern52, FamilyMatern32, FamilyRBF} {
		r, err := FitAuto(xs, ys, FitOptions{Family: fam})
		if err != nil {
			t.Fatalf("family %d: %v", fam, err)
		}
		if len(r.xs) != 4 {
			t.Fatalf("family %d: %d training points", fam, len(r.xs))
		}
	}
}

func TestDuplicateInputsHandledByJitter(t *testing.T) {
	// Identical inputs make the Gram matrix singular at tiny noise; the
	// jittered Cholesky must still fit.
	xs := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	ys := []float64{3, 3.01, 5}
	r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-9)
	if err := r.Fit(xs, ys); err != nil {
		t.Fatalf("Fit with duplicates: %v", err)
	}
	m := r.PredictMean([]float64{1, 1})
	if math.Abs(m-3.005) > 0.05 {
		t.Fatalf("duplicate-input mean = %v, want ~3.005", m)
	}
}

func TestMultiDimensionalInputs(t *testing.T) {
	// f(x) = x0 + 2*x1 over a small grid.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			xs = append(xs, []float64{float64(i), float64(j)})
			ys = append(ys, float64(i)+2*float64(j))
		}
	}
	r, err := FitAuto(xs, ys, FitOptions{Family: FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}
	m := r.PredictMean([]float64{2.5, 2.5})
	if math.Abs(m-7.5) > 0.3 {
		t.Fatalf("2-D prediction = %v, want ~7.5", m)
	}
}

func TestTrainingDataRoundTrip(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{5, 7, 6}
	r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-6)
	if err := r.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	gx, gy := r.TrainingData()
	if len(gx) != 3 || len(gy) != 3 {
		t.Fatal("wrong sizes")
	}
	for i := range ys {
		if math.Abs(gy[i]-ys[i]) > 1e-12 {
			t.Fatalf("target %d = %v, want %v (de-centering failed)", i, gy[i], ys[i])
		}
		if gx[i][0] != xs[i][0] {
			t.Fatalf("input %d = %v", i, gx[i])
		}
	}
	// The data is a view, not a copy, and Append never changes a view
	// taken before it. The second Append writes into the spare capacity
	// the first one grew, right past the view's capped length.
	if err := r.Append([]float64{3}, 8); err != nil {
		t.Fatal(err)
	}
	vx, vy := r.TrainingData()
	wantX := [][]float64{{0}, {1}, {2}, {3}}
	wantY := []float64{5, 7, 6, 8}
	if err := r.Append([]float64{4}, 9); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vx, wantX) || !reflect.DeepEqual(vy, wantY) || cap(vx) != 4 || cap(vy) != 4 {
		t.Fatalf("view changed under Append: %v %v (cap %d/%d)", vx, vy, cap(vx), cap(vy))
	}
	if ax, ay := r.TrainingData(); len(ax) != 5 || ay[4] != 9 {
		t.Fatalf("fresh view after Append = %d points, targets %v", len(ax), ay)
	}
}

// Property: a model grown with Append matches a from-scratch Fit on the
// full data to 1e-9 — factor, mean, and posterior predictions.
func TestAppendMatchesFullFit(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stat.NewRNG(seed)
		n := 4 + rng.Intn(12)
		dim := 1 + rng.Intn(3)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.Float64() * 10
			}
			ys[i] = math.Sin(xs[i][0]) + rng.Float64()*0.1
		}
		kern := Matern52{Variance: 1, LengthScale: 2}
		full := New(kern, 1e-4)
		if err := full.Fit(xs, ys); err != nil {
			return false
		}
		inc := New(kern, 1e-4)
		m := 1 + rng.Intn(n-1)
		if err := inc.Fit(xs[:m], ys[:m]); err != nil {
			return false
		}
		for i := m; i < n; i++ {
			if err := inc.Append(xs[i], ys[i]); err != nil {
				return false
			}
		}
		if len(inc.xs) != len(full.xs) {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, dim)
			for d := range q {
				q[d] = rng.Float64() * 10
			}
			m1, v1, err1 := full.Predict(q)
			m2, v2, err2 := inc.Predict(q)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(m1-m2) > 1e-9 || math.Abs(v1-v2) > 1e-9 {
				return false
			}
		}
		l1, _ := full.LogMarginalLikelihood()
		l2, _ := inc.LogMarginalLikelihood()
		return math.Abs(l1-l2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendValidation(t *testing.T) {
	r := New(Matern52{Variance: 1, LengthScale: 1}, 1e-4)
	if err := r.Append([]float64{1}, 1); err != ErrNoData {
		t.Fatalf("Append before Fit err = %v, want ErrNoData", err)
	}
	if err := r.Fit([][]float64{{0}, {1}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append([]float64{1, 2}, 3); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if len(r.xs) != 2 {
		t.Fatalf("failed Append changed the training set to %d points", len(r.xs))
	}
	if err := r.Append([]float64{2}, 3); err != nil {
		t.Fatal(err)
	}
	if len(r.xs) != 3 {
		t.Fatalf("%d training points, want 3", len(r.xs))
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := stat.NewRNG(11)
	xs := make([][]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 5, rng.Float64() * 5}
		ys[i] = rng.Float64()
	}
	r, err := FitAuto(xs, ys, FitOptions{Family: FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 20)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 5, rng.Float64() * 5}
	}
	means := make([]float64, len(queries))
	variances := make([]float64, len(queries))
	var ws Workspace
	if err := r.PredictBatch(&ws, queries, means, variances); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		m, v, err := r.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if m != means[i] || v != variances[i] {
			t.Fatalf("batch[%d] = (%v, %v), Predict = (%v, %v)", i, means[i], variances[i], m, v)
		}
	}
	// Mean-only batch skips the variance solve but matches means.
	meansOnly := make([]float64, len(queries))
	if err := r.PredictBatch(&ws, queries, meansOnly, nil); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if meansOnly[i] != means[i] {
			t.Fatalf("mean-only batch[%d] = %v, want %v", i, meansOnly[i], means[i])
		}
	}
	// PredictMean skips the variance solve too, bit for bit.
	for i, q := range queries {
		if got := r.PredictMean(q); math.Float64bits(got) != math.Float64bits(means[i]) {
			t.Fatalf("PredictMean(%v) = %v, Predict mean = %v", q, got, means[i])
		}
	}
	// Steady-state batch prediction must not allocate.
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.PredictBatch(&ws, queries, means, variances); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictBatch allocs/op = %v, want 0", allocs)
	}
}

func TestPredictBatchValidation(t *testing.T) {
	r := New(rbf{Variance: 1, LengthScale: 1}, 1e-4)
	var ws Workspace
	if err := r.PredictBatch(&ws, [][]float64{{1}}, []float64{0}, nil); err != ErrNoData {
		t.Fatalf("unfitted PredictBatch err = %v", err)
	}
	if err := r.Fit([][]float64{{0}, {1}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.PredictBatch(&ws, [][]float64{{1}, {2}}, []float64{0}, nil); err == nil {
		t.Fatal("short means should error")
	}
	if err := r.PredictBatch(&ws, [][]float64{{1}, {2}}, nil, []float64{0}); err == nil {
		t.Fatal("short variances should error")
	}
}

// FitAuto's grid search over the shared distance matrix must agree with
// fitting the winning kernel directly on the raw inputs.
func TestFitAutoMatchesDirectFit(t *testing.T) {
	rng := stat.NewRNG(17)
	xs := make([][]float64, 15)
	ys := make([]float64, 15)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 8, rng.Float64() * 8}
		ys[i] = math.Sin(xs[i][0]) * math.Cos(xs[i][1])
	}
	auto, err := FitAuto(xs, ys, FitOptions{Family: FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}
	direct := New(auto.Kernel(), auto.Noise())
	if err := direct.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := []float64{rng.Float64() * 8, rng.Float64() * 8}
		m1, v1, _ := auto.Predict(q)
		m2, v2, _ := direct.Predict(q)
		if math.Abs(m1-m2) > 1e-9 || math.Abs(v1-v2) > 1e-9 {
			t.Fatalf("FitAuto model diverges from direct fit: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
		}
	}
}

// LogMarginalLikelihood is the reference for the fitted model's
// log p(y | X, θ) that FitAuto's hyperparameter search scores inline:
//
//	−½ yᵀK⁻¹y − ½ log|K| − (n/2)·log 2π
func (r *Regressor) LogMarginalLikelihood() (float64, error) {
	if r.chol == nil {
		return 0, ErrNoData
	}
	n := float64(len(r.ys))
	fit := -0.5 * mat.Dot(r.cy, r.alpha)
	complexity := -0.5 * r.chol.LogDet()
	return fit + complexity - 0.5*n*math.Log(2*math.Pi), nil
}
