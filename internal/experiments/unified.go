package experiments

import (
	"errors"
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/gp"
)

// unifiedModel implements the paper's stated future work ("we plan to
// investigate efficient methods to unbind benefit models from input data
// rates") for the transfer ablation: instead of one benefit model per
// rate plus a transfer step, a single Gaussian process is fitted over the
// *joint* (parallelism, rate) space. Every trial at every rate
// contributes to one surface, so a new rate needs no residual fitting at
// all — the model interpolates across rates directly.
//
// The input encoding appends the rate (scaled to thousands of records/s,
// so it is commensurate with parallelism coordinates) to the parallelism
// vector.
type unifiedModel struct {
	numOps int
	xs     [][]float64
	ys     []float64
	model  *gp.Regressor
	dirty  bool
}

// unifiedRateScale divides the rate for the input encoding: the model
// sees k-records/s.
const unifiedRateScale = 1000

// newUnifiedModel builds an empty joint model for a numOps-operator job.
func newUnifiedModel(numOps int) *unifiedModel {
	return &unifiedModel{numOps: numOps}
}

// encode builds the GP input for (par, rate).
func (u *unifiedModel) encode(par dataflow.ParallelismVector, rateRPS float64) []float64 {
	x := make([]float64, u.numOps+1)
	for i, k := range par {
		x[i] = float64(k)
	}
	x[u.numOps] = rateRPS / unifiedRateScale
	return x
}

// observe records one (configuration, rate) → score sample.
func (u *unifiedModel) observe(par dataflow.ParallelismVector, rateRPS, score float64) error {
	if len(par) != u.numOps {
		return fmt.Errorf("experiments: unified model got %d operators, want %d", len(par), u.numOps)
	}
	if rateRPS <= 0 {
		return errors.New("experiments: unified model needs rate > 0")
	}
	u.xs = append(u.xs, u.encode(par, rateRPS))
	u.ys = append(u.ys, score)
	u.dirty = true
	return nil
}

// observeTrials records all trials of an Algorithm 1/2 result at a rate.
func (u *unifiedModel) observeTrials(trials []core.Trial, rateRPS float64) error {
	for _, tr := range trials {
		if err := u.observe(tr.Par, rateRPS, tr.Score); err != nil {
			return err
		}
	}
	return nil
}

// predict returns the posterior mean and std of the score for a
// configuration at a rate — including rates never observed.
func (u *unifiedModel) predict(par dataflow.ParallelismVector, rateRPS float64) (mean, std float64, err error) {
	if len(par) != u.numOps {
		return 0, 0, fmt.Errorf("experiments: unified model got %d operators, want %d", len(par), u.numOps)
	}
	if u.dirty || u.model == nil {
		if len(u.xs) == 0 {
			return 0, 0, gp.ErrNoData
		}
		m, err := gp.FitAuto(u.xs, u.ys, gp.FitOptions{Family: gp.FamilyMatern52})
		if err != nil {
			return 0, 0, err
		}
		u.model, u.dirty = m, false
	}
	return u.model.PredictStd(u.encode(par, rateRPS))
}

// at returns a rate-sliced view that satisfies transfer.Predictor, so the
// unified model can seed Algorithm 2 wherever a per-rate benefit model is
// expected.
func (u *unifiedModel) at(rateRPS float64) rateSlice {
	return rateSlice{u: u, rate: rateRPS}
}

// rateSlice is a fixed-rate view of a unifiedModel.
type rateSlice struct {
	u    *unifiedModel
	rate float64
}

// PredictMean returns the unified model's posterior mean at this slice's
// rate (0 before any data, matching gp.Regressor's unfitted behavior).
func (s rateSlice) PredictMean(x []float64) float64 {
	mean, _, err := s.u.predict(dataflow.FromFloats(x), s.rate)
	if err != nil {
		return 0
	}
	return mean
}
