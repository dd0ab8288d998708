package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("a single sample has no spread, got %v %v", q1, q3)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 over 999 samples must be refused")
	}
	v, err := percentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 over 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(199), 95); err == nil {
		t.Error("p95 over 199 samples must be refused")
	}
	if v, err := percentile(seq(200), 95); err != nil || v != 190 {
		t.Errorf("p95 over 1..200 = %v, %v; want 190", v, err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(5000), p); err == nil {
			t.Errorf("percentile %v must be rejected", p)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {5000, 99}, {750, 95}, {120, 90}, {60, 75}} {
		p, v, ok := highestPercentile(seq(c.n), 100)
		if !ok || p != c.want || v <= 0 {
			t.Errorf("highestPercentile(%d samples) = p%v (%v, %v), want p%v", c.n, p, v, ok, c.want)
		}
	}
	if p, _, _ := highestPercentile(seq(5000), 95); p != 95 {
		t.Errorf("a ceiling of p95 gave p%v", p)
	}
	if _, _, ok := highestPercentile(seq(39), 100); ok {
		t.Error("39 samples support no tail percentile")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{9, 10, 10, 11, 10})
	if s.N != 5 || s.Median != 10 || s.Min != 9 || s.Max != 11 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.RangeShare-0.2) > 1e-12 || math.Abs(s.IQRShare-0.1) > 1e-12 {
		t.Errorf("range share %v (want 0.2), iqr share %v (want 0.1)", s.RangeShare, s.IQRShare)
	}
	if z := summarize(nil); z.N != 0 || z.Median != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
