package stat

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(4)
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal()
	}
	m := Mean(xs)
	if math.Abs(m) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", m)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	if s := math.Sqrt(ss / float64(n-1)); math.Abs(s-1) > 0.03 {
		t.Fatalf("normal std = %v, want ~1", s)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestNormPDFCDFKnown(t *testing.T) {
	if math.Abs(NormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("NormPDF(0) = %v", NormPDF(0))
	}
	if math.Abs(NormCDF(0)-0.5) > 1e-12 {
		t.Fatalf("NormCDF(0) = %v", NormCDF(0))
	}
	if math.Abs(NormCDF(1.96)-0.9750021) > 1e-5 {
		t.Fatalf("NormCDF(1.96) = %v", NormCDF(1.96))
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if Mean(xs) != 3 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("P50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("P0/P100 wrong")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(nil) should panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("P25 = %v, want 2.5", got)
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
}
