package gp

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/mat"
)

// ErrNoData is returned when fitting or predicting with no training points.
var ErrNoData = errors.New("gp: no training data")

// Regressor is an exact Gaussian process regressor. The zero value is not
// usable; construct with New and call Fit before Predict.
//
// The model is y = f(x) + ε with f ~ GP(mean, k) and ε ~ N(0, Noise). The
// prior mean is the constant training-target mean (standard "centered"
// parameterization), which keeps extrapolation anchored to typical scores
// rather than zero.
type Regressor struct {
	kernel Kernel
	noise  float64

	xs    [][]float64
	ys    []float64 // raw targets
	cy    []float64 // centered targets (ys − meanY)
	meanY float64

	chol   *mat.Cholesky
	alpha  []float64 // K⁻¹·(y − mean)
	jitter float64   // diagonal jitter folded into the factored K
}

// New returns a Regressor with the given kernel and observation noise
// variance (noise must be > 0 for numerical stability; values around 1e-6
// to 1e-2 are typical for normalized targets).
func New(kernel Kernel, noise float64) *Regressor {
	if noise <= 0 {
		panic("gp: noise must be positive")
	}
	return &Regressor{kernel: kernel, noise: noise}
}

// Kernel returns the kernel in use.
func (r *Regressor) Kernel() Kernel { return r.kernel }

// Noise returns the observation noise variance.
func (r *Regressor) Noise() float64 { return r.noise }

// Fit trains the GP on (xs, ys). Inputs are copied. All xs must share one
// dimensionality, and len(xs) must equal len(ys).
func (r *Regressor) Fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 {
		return ErrNoData
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	dim := len(xs[0])
	cx := make([][]float64, len(xs))
	for i, x := range xs {
		if len(x) != dim {
			return fmt.Errorf("gp: input %d has dim %d, want %d", i, len(x), dim)
		}
		cx[i] = mat.CopyVec(x)
	}
	ry := mat.CopyVec(ys)
	meanY, cy := centerTargets(ry, nil)

	k := gramLower(r.kernel, cx, r.noise)
	chol, jitter, err := mat.NewCholeskyJittered(k, 1e-10, 1e-2)
	if err != nil {
		return fmt.Errorf("gp: kernel matrix not positive definite: %w", err)
	}
	r.xs, r.ys, r.cy, r.meanY = cx, ry, cy, meanY
	r.chol = chol
	r.jitter = jitter
	r.alpha = chol.SolveVec(cy)
	return nil
}

// Append extends the fitted model with one observation in O(n²): the
// Cholesky factor is bordered with the new covariance row (rank-1 update)
// instead of refactored from scratch, then the prior mean is re-centered
// and the weight vector re-solved against the grown factor. The resulting
// model is numerically identical to refitting on the full data with the
// same kernel, noise, and jitter.
//
// Kernel hyperparameters are NOT re-selected — callers that tune them
// (e.g. via FitAuto) should periodically do a full refit. Append fails
// (leaving the model unchanged) when the regressor is unfitted, the input
// dimension mismatches, or the extended kernel matrix is not positive
// definite at the current jitter — the caller falls back to a full refit.
func (r *Regressor) Append(x []float64, y float64) error {
	if r.chol == nil {
		return ErrNoData
	}
	if len(x) != len(r.xs[0]) {
		return fmt.Errorf("gp: append input dim %d, want %d", len(x), len(r.xs[0]))
	}
	col := crossCov(r.kernel, x, r.xs)
	diag := r.kernel.Eval(x, x) + r.noise + r.jitter
	if err := r.chol.Append(col, diag); err != nil {
		return fmt.Errorf("gp: appended kernel matrix not positive definite: %w", err)
	}
	r.xs = append(r.xs, mat.CopyVec(x))
	r.ys = append(r.ys, y)
	r.meanY, r.cy = centerTargets(r.ys, r.cy[:0])
	if cap(r.alpha) < len(r.ys) {
		r.alpha = make([]float64, len(r.ys))
	}
	r.alpha = r.alpha[:len(r.ys)]
	r.chol.SolveVecInto(r.alpha, r.cy)
	return nil
}

// centerTargets computes the mean of ys and the centered targets, writing
// into dst (grown as needed; pass nil to allocate).
func centerTargets(ys []float64, dst []float64) (meanY float64, cy []float64) {
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(len(ys))
	if cap(dst) < len(ys) {
		dst = make([]float64, 0, len(ys))
	}
	cy = dst[:len(ys)]
	for i, y := range ys {
		cy[i] = y - meanY
	}
	return meanY, cy
}

// Workspace holds reusable scratch buffers for prediction, so repeated
// Predict calls over one fitted model (an acquisition sweep) perform zero
// heap allocations. A Workspace must not be shared between goroutines;
// concurrent sweeps use one Workspace per worker. The zero value is ready
// to use and sizes itself on first use.
type Workspace struct {
	ks []float64 // cross-covariance k(x, X)
	v  []float64 // forward-substitution scratch L⁻¹·ks
}

func (w *Workspace) ensure(n int) {
	if cap(w.ks) < n {
		w.ks = make([]float64, n)
		w.v = make([]float64, n)
	}
	w.ks = w.ks[:n]
	w.v = w.v[:n]
}

// PredictWS returns the posterior mean and variance at x using ws for
// scratch space (allocation-free once ws is warm). The variance is the
// latent-function variance (excluding observation noise), floored at 0.
func (r *Regressor) PredictWS(ws *Workspace, x []float64) (mean, variance float64, err error) {
	if r.chol == nil {
		return 0, 0, ErrNoData
	}
	ws.ensure(len(r.xs))
	ks := crossCovInto(ws.ks, r.kernel, x, r.xs)
	mean = r.meanY + mat.Dot(ks, r.alpha)
	v := r.chol.SolveLowerVecInto(ws.v, ks)
	variance = r.kernel.Eval(x, x) - mat.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// PredictMeanWS returns just the posterior mean at x using ws for scratch
// — it skips the triangular solve the variance needs, roughly halving the
// cost of mean-only sweeps, and allocates nothing once ws is warm.
func (r *Regressor) PredictMeanWS(ws *Workspace, x []float64) (float64, error) {
	if r.chol == nil {
		return 0, ErrNoData
	}
	ws.ensure(len(r.xs))
	ks := crossCovInto(ws.ks, r.kernel, x, r.xs)
	return r.meanY + mat.Dot(ks, r.alpha), nil
}

// PredictBatch fills means[i] and variances[i] with the posterior at each
// xs[i], reusing ws across the batch so the steady state allocates
// nothing. means and variances must be at least len(xs) long; either may
// be nil to skip that output (skipping variances also skips the
// triangular solve, halving the cost of mean-only sweeps).
func (r *Regressor) PredictBatch(ws *Workspace, xs [][]float64, means, variances []float64) error {
	if r.chol == nil {
		return ErrNoData
	}
	if means != nil && len(means) < len(xs) {
		return fmt.Errorf("gp: means length %d < batch %d", len(means), len(xs))
	}
	if variances != nil && len(variances) < len(xs) {
		return fmt.Errorf("gp: variances length %d < batch %d", len(variances), len(xs))
	}
	ws.ensure(len(r.xs))
	for i, x := range xs {
		ks := crossCovInto(ws.ks, r.kernel, x, r.xs)
		if means != nil {
			means[i] = r.meanY + mat.Dot(ks, r.alpha)
		}
		if variances != nil {
			v := r.chol.SolveLowerVecInto(ws.v, ks)
			variance := r.kernel.Eval(x, x) - mat.Dot(v, v)
			if variance < 0 {
				variance = 0
			}
			variances[i] = variance
		}
	}
	return nil
}

// Predict returns the posterior mean and variance at x. The variance is
// the latent-function variance (excluding observation noise), floored at 0.
func (r *Regressor) Predict(x []float64) (mean, variance float64, err error) {
	var ws Workspace
	return r.PredictWS(&ws, x)
}

// PredictMean returns just the posterior mean at x (0 when unfitted).
func (r *Regressor) PredictMean(x []float64) float64 {
	var ws Workspace
	m, err := r.PredictMeanWS(&ws, x)
	if err != nil {
		return 0
	}
	return m
}

// PredictStd returns the posterior mean and standard deviation at x.
func (r *Regressor) PredictStd(x []float64) (mean, std float64, err error) {
	m, v, err := r.Predict(x)
	return m, math.Sqrt(v), err
}

// TrainingData returns the fitted inputs and targets — enough to refit an
// equivalent model, which is how the transfer package persists benefit
// models. The slices are views of the model's own data, read-only by
// contract, and copy nothing: Fit replaces the data and Append only
// writes past the view's capped length, so a view never changes.
func (r *Regressor) TrainingData() (xs [][]float64, ys []float64) {
	n := len(r.xs)
	return r.xs[:n:n], r.ys[:n:n]
}
