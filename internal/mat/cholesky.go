package mat

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ.
//
// The factor is stored packed, row-major: row i occupies
// data[i(i+1)/2 : i(i+1)/2+i+1]. Packing halves the memory of a dense
// matrix, keeps the forward-substitution inner loops contiguous, and makes
// Append — extending the factor by one row/column — a single slice append,
// so an n-point factor can be grown incrementally in O(n²) per point
// instead of refactored from scratch in O(n³).
type Cholesky struct {
	data []float64
	// inv caches 1/L[i,i]: the triangular solves on the GP hot path replace
	// each division by a multiplication, and the reciprocals are computed
	// once per factorization instead of once per solve.
	inv []float64
	n   int
}

// row returns packed row i (length i+1) without copying.
func (c *Cholesky) row(i int) []float64 {
	off := i * (i + 1) / 2
	return c.data[off : off+i+1]
}

// Factor refactors c in place as the Cholesky factor of a + jitter·I,
// reusing c's buffers (grown as needed) — the hyperparameter grid search
// factors dozens of same-sized candidates and keeps only one, so the
// discarded factors must not each allocate. Only the lower triangle of a
// is read. On error the factor contents are undefined, but the buffers
// remain reusable for another Factor call.
func (c *Cholesky) Factor(a *Matrix, jitter float64) error {
	if a.Rows() != a.Cols() {
		return fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	need := n * (n + 1) / 2
	if cap(c.data) < need {
		c.data = make([]float64, need)
	}
	c.data = c.data[:need]
	if cap(c.inv) < n {
		c.inv = make([]float64, n)
	}
	c.inv = c.inv[:n]
	c.n = n
	for j := 0; j < n; j++ {
		// Diagonal element.
		d := a.RawRow(j)[j] + jitter
		lj := c.row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		lj[j] = d
		id := 1 / d
		c.inv[j] = id
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.RawRow(i)[j]
			li := c.row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s * id
		}
	}
	return nil
}

// FactorJittered repeatedly attempts Factor, adding an exponentially
// growing jitter to the diagonal until it succeeds or the jitter exceeds
// maxJitter, and returns the jitter used. This is the standard trick for
// nearly-singular GP kernel matrices.
func (c *Cholesky) FactorJittered(a *Matrix, startJitter, maxJitter float64) (float64, error) {
	if err := c.Factor(a, 0); err == nil {
		return 0, nil
	}
	for j := startJitter; j <= maxJitter; j *= 10 {
		if err := c.Factor(a, j); err == nil {
			return j, nil
		}
	}
	return 0, ErrNotPositiveDefinite
}

// NewCholeskyJittered is the allocating form of FactorJittered, returning
// a fresh factor along with the jitter used.
func NewCholeskyJittered(a *Matrix, startJitter, maxJitter float64) (*Cholesky, float64, error) {
	c := &Cholesky{}
	j, err := c.FactorJittered(a, startJitter, maxJitter)
	if err != nil {
		return nil, 0, err
	}
	return c, j, nil
}

// Append extends the factorization of A to that of the bordered matrix
//
//	A' = | A    col |
//	     | colᵀ diag|
//
// in O(n²): one forward substitution L·w = col plus the new diagonal pivot
// diag − wᵀw. The factor is unchanged on error (non-SPD extension). col is
// the new row/column of covariances with the existing points and diag the
// new diagonal entry (including any noise/jitter the caller folded into A).
func (c *Cholesky) Append(col []float64, diag float64) error {
	n := c.n
	if len(col) != n {
		panic(fmt.Sprintf("mat: Append column length %d != %d", len(col), n))
	}
	// The bordered row w (L·w = col, then the pivot) is solved straight
	// into the grown packed storage; on error the length is cut back, so
	// the factor is unchanged.
	off := len(c.data)
	c.data = slices.Grow(c.data, n+1)[:off+n+1]
	w := c.data[off:]
	for i := 0; i < n; i++ {
		li := c.row(i)
		s := col[i]
		for k := 0; k < i; k++ {
			s -= li[k] * w[k]
		}
		w[i] = s * c.inv[i]
	}
	d := diag
	for i := 0; i < n; i++ {
		d -= w[i] * w[i]
	}
	if d <= 0 || math.IsNaN(d) {
		c.data = c.data[:off]
		return ErrNotPositiveDefinite
	}
	w[n] = math.Sqrt(d)
	c.inv = append(c.inv, 1/w[n])
	c.n++
	return nil
}

// Clone returns a deep copy of the factor.
func (c *Cholesky) Clone() *Cholesky {
	data := make([]float64, len(c.data))
	copy(data, c.data)
	inv := make([]float64, len(c.inv))
	copy(inv, c.inv)
	return &Cholesky{data: data, inv: inv, n: c.n}
}

// SolveVec solves A·x = b using the factorization (forward then backward
// substitution).
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.n), b)
}

// SolveVecInto solves A·x = b into dst (length n, aliasing b allowed)
// without allocating: forward substitution into dst, then backward
// substitution in place.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	c.SolveLowerVecInto(dst, b)
	// Backward: Lᵀ·x = y, overwriting dst. x[i] depends only on x[k], k>i,
	// which are already final, and on dst[i] itself, still the forward
	// solution.
	for i := c.n - 1; i >= 0; i-- {
		s := dst[i]
		off := (i + 1) * (i + 2) / 2 // start of packed row i+1
		for k := i + 1; k < c.n; k++ {
			s -= c.data[off+i] * dst[k]
			off += k + 1
		}
		dst[i] = s * c.inv[i]
	}
	return dst
}

// SolveLowerVecInto solves L·y = b into dst without allocating. dst must
// have length n; aliasing dst and b is allowed (entry i is finalized
// before entry i+1 is read).
func (c *Cholesky) SolveLowerVecInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: SolveLowerVecInto lengths %d,%d != %d", len(dst), len(b), c.n))
	}
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s * c.inv[i]
	}
	return dst
}

// LogDet returns log(det(A)) = 2·Σ log(L[i,i]).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.data[i*(i+1)/2+i])
	}
	return 2 * s
}
