// Package gp implements Gaussian process regression from scratch: Matérn
// and RBF covariance kernels, exact posterior inference via Cholesky
// factorization, log marginal likelihood, and a derivative-free
// hyperparameter search.
//
// This is the surrogate model of AuTraScale (paper §III-E): the paper uses
// a Gaussian process with a Matérn covariance kernel because it makes no
// prior assumption about the shape of the parallelism→score relationship
// and extrapolates better than, e.g., random forests.
package gp

import (
	"fmt"
	"math"

	"autrascale/internal/mat"
)

// Kernel is a positive-definite covariance function over ℝⁿ.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
}

// radialKernel is a stationary kernel whose value depends only on the
// squared distance ‖x−y‖². All built-in kernels implement it; gram and the
// hyperparameter grid search use it to evaluate many kernels over one
// precomputed distance matrix instead of recomputing pairwise distances
// per hyperparameter candidate.
type radialKernel interface {
	Kernel
	// EvalDist2 returns k(x, y) for ‖x−y‖² = d2.
	EvalDist2(d2 float64) float64
}

// Matern52 is the Matérn covariance with smoothness ν = 5/2:
//
//	k(r) = σ²·(1 + √5 r/ℓ + 5r²/(3ℓ²))·exp(−√5 r/ℓ)
//
// The paper's choice ("the GP model with the Matern covariance kernel").
type Matern52 struct {
	Variance    float64 // σ², signal variance
	LengthScale float64 // ℓ > 0
}

// Eval returns the Matérn-5/2 covariance between x and y.
func (k Matern52) Eval(x, y []float64) float64 {
	return k.EvalDist2(mat.SqDist(x, y))
}

// EvalDist2 returns the covariance at squared distance d2.
func (k Matern52) EvalDist2(d2 float64) float64 {
	r := math.Sqrt(d2) / k.LengthScale
	s := math.Sqrt(5) * r
	return k.Variance * (1 + s + 5*r*r/3) * math.Exp(-s)
}

func (k Matern52) String() string {
	return fmt.Sprintf("Matern52(var=%.4g, len=%.4g)", k.Variance, k.LengthScale)
}

// matern32 is the Matérn covariance with ν = 3/2:
//
//	k(r) = σ²·(1 + √3 r/ℓ)·exp(−√3 r/ℓ)
type matern32 struct {
	Variance    float64
	LengthScale float64
}

// Eval returns the Matérn-3/2 covariance between x and y.
func (k matern32) Eval(x, y []float64) float64 {
	return k.EvalDist2(mat.SqDist(x, y))
}

// EvalDist2 returns the covariance at squared distance d2.
func (k matern32) EvalDist2(d2 float64) float64 {
	r := math.Sqrt(d2) / k.LengthScale
	s := math.Sqrt(3) * r
	return k.Variance * (1 + s) * math.Exp(-s)
}

func (k matern32) String() string {
	return fmt.Sprintf("Matern32(var=%.4g, len=%.4g)", k.Variance, k.LengthScale)
}

// rbf is the RBF (squared-exponential) covariance k(r) = σ²·exp(−r²/(2ℓ²)).
type rbf struct {
	Variance    float64
	LengthScale float64
}

// Eval returns the RBF covariance between x and y.
func (k rbf) Eval(x, y []float64) float64 {
	return k.EvalDist2(mat.SqDist(x, y))
}

// EvalDist2 returns the covariance at squared distance d2.
func (k rbf) EvalDist2(d2 float64) float64 {
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

func (k rbf) String() string {
	return fmt.Sprintf("RBF(var=%.4g, len=%.4g)", k.Variance, k.LengthScale)
}

// selfCov returns k(x, x), the prior variance at x. A built-in kernel
// with ℓ > 0 is σ² there, bit for bit at any finite x (distance 0 makes
// its shape factor exactly 1), so the sqrt and exp are skipped.
func selfCov(k Kernel, x []float64) float64 {
	var v, l float64
	switch k := k.(type) {
	case Matern52:
		v, l = k.Variance, k.LengthScale
	case matern32:
		v, l = k.Variance, k.LengthScale
	case rbf:
		v, l = k.Variance, k.LengthScale
	}
	if l > 0 {
		return v
	}
	return k.Eval(x, x)
}

// gramLower fills g (resized to n x n) with the Gram matrix K[i,j] =
// k(xs[i], xs[j]) + noise·δij, writing only the lower triangle (including
// the diagonal): its sole consumer is the Cholesky factorization, which
// reads nothing above the diagonal, so the symmetric half of the kernel
// evaluations is skipped.
func gramLower(g *mat.Matrix, k Kernel, xs [][]float64, noise float64) {
	n := len(xs)
	g.Resize(n, n)
	fill := func(eval func(x, y []float64) float64) {
		for i := 0; i < n; i++ {
			gr, xi := g.RawRow(i), xs[i]
			for j := 0; j <= i; j++ {
				gr[j] = eval(xi, xs[j])
			}
			gr[i] += noise
		}
	}
	// Concrete-type loops let the kernel inline (see crossCovInto).
	switch kk := k.(type) {
	case Matern52:
		fill(func(x, y []float64) float64 { return kk.EvalDist2(mat.SqDist(x, y)) })
	case matern32:
		fill(func(x, y []float64) float64 { return kk.EvalDist2(mat.SqDist(x, y)) })
	case rbf:
		fill(func(x, y []float64) float64 { return kk.EvalDist2(mat.SqDist(x, y)) })
	default:
		fill(k.Eval)
	}
}

// unitShape fills the lower triangle of the preallocated n x n matrix s
// with the unit-variance kernel values k₁(d2[i,j]) of family f at length
// scale ls from a (lower-triangular) squared-distance matrix, reusing s's
// storage across hyperparameter candidates. Like gramLower, the output
// feeds only lower-triangle consumers. Each family gets a concrete-type
// loop, so EvalDist2 inlines (see crossCovInto) and no kernel is boxed.
func unitShape(s *mat.Matrix, f KernelFamily, ls float64, d2 *mat.Matrix) {
	n := d2.Rows()
	fill := func(eval func(float64) float64) {
		for i := 0; i < n; i++ {
			sr, dr := s.RawRow(i), d2.RawRow(i)
			for j := 0; j <= i; j++ {
				sr[j] = eval(dr[j])
			}
		}
	}
	switch f {
	case FamilyMatern32:
		fill(matern32{Variance: 1, LengthScale: ls}.EvalDist2)
	case FamilyRBF:
		fill(rbf{Variance: 1, LengthScale: ls}.EvalDist2)
	default:
		fill(Matern52{Variance: 1, LengthScale: ls}.EvalDist2)
	}
}

// dist2Matrix fills d2 (resized to n x n) with the pairwise squared
// distances, writing the lower triangle and the zero diagonal only.
func dist2Matrix(d2 *mat.Matrix, xs [][]float64) {
	n := len(xs)
	d2.Resize(n, n)
	for i := 0; i < n; i++ {
		dr, xi := d2.RawRow(i), xs[i]
		for j := 0; j < i; j++ {
			dr[j] = mat.SqDist(xi, xs[j])
		}
		dr[i] = 0
	}
}

// copyInputs copies xs into one flat buffer, each row capped at its own
// length so appending to a row cannot reach the next. bad is the first
// row whose length differs from xs[0]'s (cx is nil then), else −1.
func copyInputs(xs [][]float64) (cx [][]float64, bad int) {
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, i
		}
	}
	flat := make([]float64, len(xs)*dim)
	cx = make([][]float64, len(xs))
	for i, x := range xs {
		row := flat[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, x)
		cx[i] = row
	}
	return cx, -1
}

// crossCov returns the vector [k(x, xs[0]), ..., k(x, xs[n-1])].
func crossCov(k Kernel, x []float64, xs [][]float64) []float64 {
	return crossCovInto(make([]float64, len(xs)), k, x, xs)
}

// crossCovInto fills dst (length len(xs)) with [k(x, xs[i])]ᵢ without
// allocating. The built-in kernels get concrete-type loops so EvalDist2
// inlines — prediction spends most of its time here, and the dynamic
// dispatch per training point is measurable on the acquisition sweep.
func crossCovInto(dst []float64, k Kernel, x []float64, xs [][]float64) []float64 {
	switch kk := k.(type) {
	case Matern52:
		for i, xi := range xs {
			dst[i] = kk.EvalDist2(mat.SqDist(x, xi))
		}
	case matern32:
		for i, xi := range xs {
			dst[i] = kk.EvalDist2(mat.SqDist(x, xi))
		}
	case rbf:
		for i, xi := range xs {
			dst[i] = kk.EvalDist2(mat.SqDist(x, xi))
		}
	default:
		for i, xi := range xs {
			dst[i] = k.Eval(x, xi)
		}
	}
	return dst
}
