package transfer

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"autrascale/internal/gp"
	"autrascale/internal/stat"
)

// fnPredictor adapts a plain function to the Predictor interface.
type fnPredictor func(x []float64) float64

func (f fnPredictor) PredictMean(x []float64) float64 { return f(x) }

func TestFitResidualValidation(t *testing.T) {
	if _, err := FitResidual(nil, []Sample{{X: []float64{1}, Y: 1}}); err == nil {
		t.Fatal("nil prev should error")
	}
	prev := fnPredictor(func(x []float64) float64 { return 0 })
	if _, err := FitResidual(prev, nil); err == nil {
		t.Fatal("no samples should error")
	}
	if _, err := FitResidual(prev, []Sample{{X: nil, Y: 1}}); err == nil {
		t.Fatal("empty input should error")
	}
}

// The key transfer property: when the new-rate function is the old one
// plus a smooth shift, a few samples suffice to predict it well —
// much better than either the old model alone or a from-scratch GP on the
// same few samples.
func TestResidualTransferBeatsScratch(t *testing.T) {
	oldF := func(x []float64) float64 { return math.Sin(x[0]) }
	newF := func(x []float64) float64 { return math.Sin(x[0]) - 0.4 + 0.05*x[0] }

	// Previous-rate model: a GP trained densely on oldF.
	var oxs [][]float64
	var oys []float64
	for x := 0.0; x <= 6; x += 0.25 {
		oxs = append(oxs, []float64{x})
		oys = append(oys, oldF([]float64{x}))
	}
	prev, err := gp.FitAuto(oxs, oys, gp.FitOptions{Family: gp.FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}

	// Only 4 real samples at the new rate.
	sparse := []Sample{}
	for _, x := range []float64{0.5, 2, 3.5, 5} {
		sparse = append(sparse, Sample{X: []float64{x}, Y: newF([]float64{x})})
	}
	rm, err := FitResidual(prev, sparse)
	if err != nil {
		t.Fatal(err)
	}

	// From-scratch GP on the same sparse data, for comparison.
	sxs := make([][]float64, len(sparse))
	sys := make([]float64, len(sparse))
	for i, s := range sparse {
		sxs[i] = s.X
		sys[i] = s.Y
	}
	scratch, err := gp.FitAuto(sxs, sys, gp.FitOptions{Family: gp.FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}

	var errTransfer, errScratch, errOld float64
	n := 0
	for x := 0.25; x <= 5.75; x += 0.25 {
		xt := []float64{x}
		want := newF(xt)
		errTransfer += math.Abs(rm.PredictMean(xt) - want)
		errScratch += math.Abs(scratch.PredictMean(xt) - want)
		errOld += math.Abs(prev.PredictMean(xt) - want)
		n++
	}
	errTransfer /= float64(n)
	errScratch /= float64(n)
	errOld /= float64(n)
	if errTransfer > 0.1 {
		t.Fatalf("transfer error = %v, want < 0.1", errTransfer)
	}
	if errTransfer >= errScratch {
		t.Fatalf("transfer (%v) should beat scratch (%v) on sparse data", errTransfer, errScratch)
	}
	if errTransfer >= errOld {
		t.Fatalf("transfer (%v) should beat the stale model (%v)", errTransfer, errOld)
	}
}

func TestResidualExactOnTrainingPoints(t *testing.T) {
	prev := fnPredictor(func(x []float64) float64 { return 2 * x[0] })
	samples := []Sample{
		{X: []float64{1}, Y: 3}, {X: []float64{2}, Y: 5}, {X: []float64{3}, Y: 6.5},
	}
	rm, err := FitResidual(prev, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if got := rm.PredictMean(s.X); math.Abs(got-s.Y) > 0.05 {
			t.Fatalf("PredictMean(%v) = %v, want %v", s.X, got, s.Y)
		}
	}
}

func TestModelLibrary(t *testing.T) {
	l := NewModelLibrary()
	if _, ok := l.Nearest(100); ok {
		t.Fatal("empty library should return ok=false")
	}
	if err := l.Put(0, fnPredictor(nil)); err == nil {
		t.Fatal("rate 0 should error")
	}
	if err := l.Put(100, nil); err == nil {
		t.Fatal("nil model should error")
	}
	m20 := fnPredictor(func(x []float64) float64 { return 20 })
	m80 := fnPredictor(func(x []float64) float64 { return 80 })
	if err := l.Put(20e3, m20); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(80e3, m80); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.Nearest(30e3)
	if !ok || e.RateRPS != 20e3 {
		t.Fatalf("Nearest(30k) = %v", e.RateRPS)
	}
	e, _ = l.Nearest(75e3)
	if e.RateRPS != 80e3 {
		t.Fatalf("Nearest(75k) = %v", e.RateRPS)
	}
	if _, ok := l.Get(20e3); !ok {
		t.Fatal("Get exact rate failed")
	}
	if _, ok := l.Get(30e3); ok {
		t.Fatal("Get missing rate should be false")
	}
	rates := l.Rates()
	if len(rates) != 2 || rates[0] != 20e3 || rates[1] != 80e3 {
		t.Fatalf("Rates = %v", rates)
	}
	// Replacement keeps a single entry.
	if err := l.Put(20e3, m80); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("replace changed Len to %d", l.Len())
	}
	got, _ := l.Get(20e3)
	if got.PredictMean(nil) != 80 {
		t.Fatal("Put did not replace the model")
	}
}

// Property: nearest always returns the entry minimizing |rate − query|.
func TestNearestProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		l := NewModelLibrary()
		n := 1 + r.Intn(10)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 1 + r.Float64()*1e5
			_ = l.Put(rates[i], fnPredictor(func(x []float64) float64 { return 0 }))
		}
		q := r.Float64() * 1.2e5
		e, ok := l.Nearest(q)
		if !ok {
			return false
		}
		for _, rt := range rates {
			if math.Abs(rt-q) < math.Abs(e.RateRPS-q)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// tagModel is a Predictor that compares equal only to itself.
type tagModel int

func (m tagModel) PredictMean([]float64) float64 { return float64(m) }

// Property: PutAll leaves the library exactly as the same sequence of
// Puts does — over random rates with duplicates, in any order, on top of
// whatever the library held — and an invalid entry anywhere in the batch
// is an error that leaves the library untouched.
func TestPutAllMatchesPuts(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		rate := func() float64 { return float64(1+r.Intn(12)) * 1000 }
		bulk, seq := NewModelLibrary(), NewModelLibrary()
		for i := r.Intn(6); i > 0; i-- {
			e := Entry{RateRPS: rate(), Model: tagModel(-i)}
			if bulk.Put(e.RateRPS, e.Model) != nil || seq.Put(e.RateRPS, e.Model) != nil {
				return false
			}
		}
		batch := make([]Entry, r.Intn(20))
		for i := range batch {
			batch[i] = Entry{RateRPS: rate(), Model: tagModel(i)}
		}
		orig := slices.Clone(batch)
		if bulk.PutAll(batch) != nil || !slices.Equal(batch, orig) {
			return false
		}
		for _, e := range batch {
			if seq.Put(e.RateRPS, e.Model) != nil {
				return false
			}
		}
		if !slices.Equal(bulk.Entries(), seq.Entries()) {
			return false
		}

		before := bulk.Entries()
		bad := append(slices.Clone(batch), Entry{RateRPS: rate(), Model: tagModel(99)})
		i := r.Intn(len(bad))
		switch r.Intn(3) {
		case 0:
			bad[i].RateRPS = 0
		case 1:
			bad[i].RateRPS = -bad[i].RateRPS
		default:
			bad[i].Model = nil
		}
		return bulk.PutAll(bad) != nil && slices.Equal(bulk.Entries(), before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The binary-search Nearest must agree with the old linear scan on its
// edge cases: exact hits, exact midpoints (tie resolves to the lower
// rate, the historical first-wins behavior), and queries outside the
// stored range on either side.
func TestNearestBinarySearchEdgeCases(t *testing.T) {
	l := NewModelLibrary()
	zero := fnPredictor(func(x []float64) float64 { return 0 })
	for _, rate := range []float64{1000, 2000, 4000, 8000} {
		if err := l.Put(rate, zero); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		query float64
		want  float64
	}{
		{"exact-hit-lowest", 1000, 1000},
		{"exact-hit-middle", 4000, 4000},
		{"exact-hit-highest", 8000, 8000},
		{"midpoint-ties-to-lower", 1500, 1000},
		{"midpoint-ties-to-lower-high", 6000, 4000},
		{"just-above-midpoint", 1501, 2000},
		{"just-below-midpoint", 2999, 2000},
		{"below-range", 50, 1000},
		{"above-range", 1e6, 8000},
	}
	for _, c := range cases {
		e, ok := l.Nearest(c.query)
		if !ok {
			t.Fatalf("%s: Nearest(%v) found nothing", c.name, c.query)
		}
		if e.RateRPS != c.want {
			t.Errorf("%s: Nearest(%v) = %v, want %v", c.name, c.query, e.RateRPS, c.want)
		}
	}

	// Entries exposes the immutable sorted snapshot.
	entries := l.Entries()
	if len(entries) != 4 {
		t.Fatalf("Entries returned %d entries, want 4", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].RateRPS >= entries[i].RateRPS {
			t.Fatalf("Entries not sorted at %d: %v >= %v", i, entries[i-1].RateRPS, entries[i].RateRPS)
		}
	}
	// The snapshot is stable across later writes.
	if err := l.Put(3000, zero); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatal("previously taken snapshot changed length after Put")
	}
	if len(l.Entries()) != 5 {
		t.Fatalf("new snapshot has %d entries, want 5", len(l.Entries()))
	}
}
