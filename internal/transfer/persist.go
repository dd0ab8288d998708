package transfer

import "autrascale/internal/gp"

// Persistence: a controller restart must not lose the benefit models the
// paper's Plan stage accumulated (§IV: "the accuracy of the model will
// gradually increase as the training data increases during the job
// runs"). Models persist as their training data — (inputs, targets) per
// rate — and are refitted on load through Fit; that keeps the format tiny,
// stable, and independent of GP internals. The on-disk format itself is
// the fleet snapshot's (internal/persist); this file is the model side of
// it.

// TrainingData is implemented by models that can expose their training
// set for persistence; *gp.Regressor does.
type TrainingData interface {
	TrainingData() (xs [][]float64, ys []float64)
}

// Fit is the benefit-model fit: a Matérn 5/2 GP with hyperparameters
// chosen by marginal likelihood. It is deterministic in its data: fitting
// the TrainingData of a model Fit returned reproduces that model bit for
// bit, so a restore predicts exactly what the captured fleet did.
func Fit(xs [][]float64, ys []float64) (*gp.Regressor, error) {
	return gp.FitAuto(xs, ys, gp.FitOptions{Family: gp.FamilyMatern52})
}
