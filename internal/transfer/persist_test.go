package transfer

import (
	"math"
	"testing"

	"autrascale/internal/gp"
)

func sampleSnapshot(t *testing.T, slope float64) *Snapshot {
	t.Helper()
	var xs [][]float64
	var ys []float64
	for k := 1.0; k <= 10; k++ {
		xs = append(xs, []float64{k})
		ys = append(ys, slope*k)
	}
	s, err := NewSnapshot(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSnapshotValidation(t *testing.T) {
	if _, err := NewSnapshot(nil, nil); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := NewSnapshot([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSnapshotPredicts(t *testing.T) {
	s := sampleSnapshot(t, 0.1)
	if got := s.PredictMean([]float64{5}); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("PredictMean(5) = %v, want ~0.5", got)
	}
	xs, ys := s.TrainingData()
	if len(xs) != 10 || len(ys) != 10 {
		t.Fatal("training data lost")
	}
}

// A gp.Regressor stored directly in the library (what the controller
// does) exposes its training data, and refitting that data through
// NewSnapshot — the restore path — reproduces its predictions.
func TestSnapshotRefitsRegressor(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for k := 1.0; k <= 8; k++ {
		xs = append(xs, []float64{k})
		ys = append(ys, 1/k)
	}
	model, err := gp.FitAuto(xs, ys, gp.FitOptions{Family: gp.FamilyMatern52})
	if err != nil {
		t.Fatal(err)
	}
	var stored Predictor = model
	td, ok := stored.(TrainingData)
	if !ok {
		t.Fatal("gp.Regressor should be persistable")
	}
	refit, err := NewSnapshot(td.TrainingData())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(refit.PredictMean([]float64{4}) - model.PredictMean([]float64{4})); d > 1e-9 {
		t.Fatalf("prediction drift %v", d)
	}
}
