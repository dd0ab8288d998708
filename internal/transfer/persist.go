package transfer

import (
	"errors"

	"autrascale/internal/gp"
)

// Persistence: a controller restart must not lose the benefit models the
// paper's Plan stage accumulated (§IV: "the accuracy of the model will
// gradually increase as the training data increases during the job
// runs"). Models persist as their training data — (inputs, targets) per
// rate — and are refitted on load; that keeps the format tiny, stable,
// and independent of GP internals. The on-disk format itself is the
// fleet snapshot's (internal/persist); this file is the model side of it.

// TrainingData is implemented by models that can expose their training
// set for persistence. gp.Regressor-backed entries qualify via Snapshot.
type TrainingData interface {
	TrainingData() (xs [][]float64, ys []float64)
}

// Snapshot wraps a Predictor with its training data so the library can
// persist and reconstruct it.
type Snapshot struct {
	model *gp.Regressor
	xs    [][]float64
	ys    []float64
}

// NewSnapshot fits a GP on (xs, ys) and returns a persistable model.
func NewSnapshot(xs [][]float64, ys []float64) (*Snapshot, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("transfer: snapshot needs matching, non-empty training data")
	}
	m, err := gp.FitAuto(xs, ys, gp.FitOptions{Family: gp.FamilyMatern52})
	if err != nil {
		return nil, err
	}
	cx := make([][]float64, len(xs))
	for i, x := range xs {
		cx[i] = append([]float64(nil), x...)
	}
	return &Snapshot{model: m, xs: cx, ys: append([]float64(nil), ys...)}, nil
}

// PredictMean implements Predictor.
func (s *Snapshot) PredictMean(x []float64) float64 { return s.model.PredictMean(x) }

// TrainingData implements TrainingData.
func (s *Snapshot) TrainingData() ([][]float64, []float64) { return s.xs, s.ys }
