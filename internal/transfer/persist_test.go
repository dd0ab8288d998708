package transfer

import (
	"math"
	"testing"
)

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestFitPredicts(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for k := 1.0; k <= 10; k++ {
		xs = append(xs, []float64{k})
		ys = append(ys, 0.1*k)
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictMean([]float64{5}); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("PredictMean(5) = %v, want ~0.5", got)
	}
	gx, gy := m.TrainingData()
	if len(gx) != 10 || len(gy) != 10 {
		t.Fatal("training data lost")
	}
}

// A fitted model stored in a library (what the controller does) exposes
// its training data, and refitting that data through Fit — the restore
// path — reproduces its predictions bit for bit. That is what lets one
// fitted model be shared by pointer instead of refitted per reader.
func TestFitRefitIsBitIdentical(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for k := 1.0; k <= 8; k++ {
		xs = append(xs, []float64{k, 9 - k})
		ys = append(ys, 1/k)
	}
	model, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var stored Predictor = model
	td, ok := stored.(TrainingData)
	if !ok {
		t.Fatal("a fitted model should be persistable")
	}
	refit, err := Fit(td.TrainingData())
	if err != nil {
		t.Fatal(err)
	}
	for a := 0.5; a <= 9; a += 0.75 {
		x := []float64{a, 10 - a*1.1}
		if got, want := refit.PredictMean(x), model.PredictMean(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("refit predicts %v at %v, original %v", got, x, want)
		}
	}
}
