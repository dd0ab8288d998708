package experiments

import (
	"math"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
)

func TestUnifiedModelValidation(t *testing.T) {
	u := newUnifiedModel(2)
	if err := u.observe(dataflow.ParallelismVector{1}, 1000, 0.5); err == nil {
		t.Fatal("wrong dimension should error")
	}
	if err := u.observe(dataflow.ParallelismVector{1, 1}, 0, 0.5); err == nil {
		t.Fatal("zero rate should error")
	}
	if _, _, err := u.predict(dataflow.ParallelismVector{1, 1}, 1000); err == nil {
		t.Fatal("predict with no data should error")
	}
	if _, _, err := u.predict(dataflow.ParallelismVector{1}, 1000); err == nil {
		t.Fatal("predict with wrong dimension should error")
	}
}

// The point of the unified model: trained at two rates, it interpolates a
// plausible surface at an intermediate, never-observed rate.
func TestUnifiedModelInterpolatesAcrossRates(t *testing.T) {
	u := newUnifiedModel(1)
	// Synthetic truth: score peaks where parallelism matches rate/1000.
	truth := func(k int, rate float64) float64 {
		d := float64(k) - rate/1000
		return 1 - 0.02*d*d
	}
	for _, rate := range []float64{4000, 8000} {
		for k := 1; k <= 12; k++ {
			if err := u.observe(dataflow.ParallelismVector{k}, rate, truth(k, rate)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// At the unseen rate 6000, the predicted surface should peak near
	// k = 6.
	bestK, bestV := 0, math.Inf(-1)
	for k := 1; k <= 12; k++ {
		mean, std, err := u.predict(dataflow.ParallelismVector{k}, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if std < 0 {
			t.Fatalf("negative std %v", std)
		}
		if mean > bestV {
			bestV, bestK = mean, k
		}
	}
	if bestK < 5 || bestK > 7 {
		t.Fatalf("unified model peak at k=%d for rate 6000, want ~6", bestK)
	}
}

func TestUnifiedModelRateSlicePredictor(t *testing.T) {
	u := newUnifiedModel(1)
	slice := u.at(5000)
	if slice.PredictMean([]float64{3}) != 0 {
		t.Fatal("empty model slice should predict 0")
	}
	for k := 1; k <= 8; k++ {
		if err := u.observe(dataflow.ParallelismVector{k}, 5000, float64(k)/10); err != nil {
			t.Fatal(err)
		}
	}
	got := slice.PredictMean([]float64{4})
	if math.Abs(got-0.4) > 0.1 {
		t.Fatalf("slice PredictMean(4) = %v, want ~0.4", got)
	}
}

func TestUnifiedModelObserveTrials(t *testing.T) {
	u := newUnifiedModel(2)
	trials := []core.Trial{
		{Par: dataflow.ParallelismVector{1, 2}, Score: 0.9},
		{Par: dataflow.ParallelismVector{2, 3}, Score: 0.8},
	}
	if err := u.observeTrials(trials, 2000); err != nil {
		t.Fatal(err)
	}
	if len(u.ys) != 2 {
		t.Fatalf("observations = %d, want 2", len(u.ys))
	}
	bad := []core.Trial{{Par: dataflow.ParallelismVector{1}, Score: 0.5}}
	if err := u.observeTrials(bad, 2000); err == nil {
		t.Fatal("bad trial dimension should error")
	}
}
