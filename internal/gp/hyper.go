package gp

import (
	"fmt"
	"math"

	"autrascale/internal/mat"
)

// KernelFamily identifies a kernel shape for hyperparameter search.
type KernelFamily int

// Supported kernel families.
const (
	FamilyMatern52 KernelFamily = iota
	FamilyMatern32
	FamilyRBF
)

// makeKernel constructs a kernel of the family with the given parameters.
func (f KernelFamily) makeKernel(variance, lengthScale float64) radialKernel {
	switch f {
	case FamilyMatern32:
		return matern32{Variance: variance, LengthScale: lengthScale}
	case FamilyRBF:
		return rbf{Variance: variance, LengthScale: lengthScale}
	default:
		return Matern52{Variance: variance, LengthScale: lengthScale}
	}
}

// FitOptions controls hyperparameter selection in FitAuto.
type FitOptions struct {
	Family KernelFamily
}

// FitAuto selects kernel hyperparameters by maximizing the log marginal
// likelihood over a grid and returns the fitted regressor. Grid search is
// derivative-free, robust for the small sample counts AuTraScale works
// with (tens of configurations), and deterministic.
//
// The observation noise variance is a small fraction of the target
// variance. The length scales are a log-spaced grid spanning the data
// diameter. The signal variance is profiled per length scale: one
// factorization at the empirical target variance yields the closed-form
// optimum v* = v₀·(yᵀK₀⁻¹y)/n of the scaled-kernel likelihood, which is
// then scored exactly: two factorizations per length scale buy a
// continuous, usually better-fitting, variance than any fixed grid.
//
// The pairwise squared-distance matrix and centered targets are computed
// once and shared across every grid candidate (all candidate kernels are
// radial), and each candidate's Gram matrix reuses one buffer, so the
// search costs one O(n²·d) distance pass plus one O(n³) factorization per
// candidate instead of rebuilding everything from the raw inputs each
// time. The work matrices and both candidate factors come from a pooled
// fitScratch; the winning factor is copied out at its exact size — no
// final refit.
func FitAuto(xs [][]float64, ys []float64, opts FitOptions) (*Regressor, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	varY := variance(ys)
	if varY <= 0 {
		varY = 1e-6
	}
	noise := math.Max(1e-6, varY*1e-3)

	cx, bad := copyInputs(xs)
	if bad >= 0 {
		// Delegate detailed validation to Fit.
		r := New(opts.Family.makeKernel(varY, 1), noise)
		if err := r.Fit(xs, ys); err != nil {
			return nil, err
		}
		return r, nil
	}
	n := len(xs)
	ry := mat.CopyVec(ys)
	meanY, cy := centerTargets(ry, nil)

	fs := getFitScratch()
	defer fitScratchPool.Put(fs)
	d2 := &fs.d2
	dist2Matrix(d2, cx)

	lens := lengthScaleGrid(d2)

	var (
		bestV, bestLS float64
		bestJitter    float64
		bestLML       = math.Inf(-1)
		bestChol      *mat.Cholesky
	)
	shape := &fs.shape // unit-variance kernel values, per length scale
	g := &fs.g         // Gram buffer, reused per candidate
	shape.Resize(n, n)
	g.Resize(n, n)
	fs.alpha = floatsFor(fs.alpha, n)         // solve buffer, reused per candidate
	fs.bestAlpha = floatsFor(fs.bestAlpha, n) // the winner's weights
	alpha, bestAlpha := fs.alpha, fs.bestAlpha
	scratch := &fs.chol[0] // factor buffer, swapped with bestChol on improvement
	for _, ls := range lens {
		// All candidate kernels are radial with a multiplicative signal
		// variance: k_v(d²) = v·k_1(d²). Evaluate the transcendental part
		// once per length scale and derive each variance candidate's Gram
		// matrix by scaling — one exp/sqrt pass per length scale over the
		// whole variance search.
		unitShape(shape, opts.Family, ls, d2)
		// score factors K = v·S + noise·I, computes its exact LML, keeps
		// the winner, and returns cyᵀK⁻¹cy (NaN on failure) for the
		// profiled-variance step below.
		score := func(v float64) float64 {
			for i := 0; i < n; i++ {
				gr, sr := g.RawRow(i)[:i+1], shape.RawRow(i)[:i+1]
				for j, s := range sr {
					gr[j] = v * s
				}
				gr[i] += noise
			}
			jitter, err := scratch.FactorJittered(g, 1e-10, 1e-2)
			if err != nil {
				return math.NaN()
			}
			scratch.SolveVecInto(alpha, cy)
			fit := mat.Dot(cy, alpha)
			lml := -0.5*fit - 0.5*scratch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
			if math.IsNaN(lml) {
				return math.NaN()
			}
			if lml > bestLML {
				bestLML = lml
				bestV, bestLS = v, ls
				if bestChol == nil {
					bestChol, scratch = scratch, &fs.chol[1]
				} else {
					bestChol, scratch = scratch, bestChol
				}
				copy(bestAlpha, alpha)
				bestJitter = jitter
			}
			return fit
		}
		// Profiled variance: anchor at the empirical target variance, then
		// jump to the closed-form optimum of the scaled-kernel likelihood,
		// v* = v₀·(cyᵀK₀⁻¹cy)/n, and score it exactly.
		fit := score(varY)
		vStar := varY * fit / float64(n)
		if !math.IsNaN(vStar) && !math.IsInf(vStar, 0) && vStar > 0 &&
			math.Abs(vStar-varY) > 1e-12*varY {
			score(vStar)
		}
	}
	if bestChol == nil {
		// Fall back to a fixed, conservative kernel.
		r := New(opts.Family.makeKernel(varY, 1), noise)
		if err := r.Fit(xs, ys); err != nil {
			return nil, err
		}
		return r, nil
	}
	return &Regressor{
		kernel: opts.Family.makeKernel(bestV, bestLS),
		noise:  noise,
		xs:     cx,
		ys:     ry,
		cy:     cy,
		meanY:  meanY,
		chol:   bestChol.Clone(),
		alpha:  mat.CopyVec(bestAlpha),
		jitter: bestJitter,
	}, nil
}

// floatsFor returns s resized to length n, reusing its backing when it
// fits. Contents are unspecified; callers overwrite every element.
func floatsFor(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// lengthScaleGrid builds a log-spaced grid from ~2% to ~2x of the data
// diameter (largest pairwise distance), so at least one scale is in a
// sensible range regardless of input units. d2 holds the pairwise squared
// distances in its lower triangle (see dist2Matrix).
func lengthScaleGrid(d2 *mat.Matrix) (grid [lengthScaleSteps]float64) {
	diam := 0.0
	n := d2.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := d2.At(i, j); v > diam {
				diam = v
			}
		}
	}
	diam = math.Sqrt(diam)
	if diam <= 0 {
		diam = 1
	}
	lo, hi := math.Log(diam*0.02), math.Log(diam*2)
	for i := range grid {
		grid[i] = math.Exp(lo + (hi-lo)*float64(i)/float64(lengthScaleSteps-1))
	}
	return grid
}

// lengthScaleSteps is the size of FitAuto's length-scale grid.
const lengthScaleSteps = 5

func variance(ys []float64) float64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	var m float64
	for _, y := range ys {
		m += y
	}
	m /= float64(n)
	var s float64
	for _, y := range ys {
		d := y - m
		s += d * d
	}
	return s / float64(n-1)
}
