package mat

import (
	"fmt"
	"math"
)

// Reference linear algebra the tests build fixtures with and check the
// factorization against: dense products and transposes, residual norms,
// and the allocating or dense views of a Cholesky factor.

// NewMatrixFrom builds a rows x cols matrix from data (copied, row-major).
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// AddDiag adds v to every diagonal element in place and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	for i := 0; i < min(m.rows, m.cols); i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d != cols %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i, v := range m.data {
		d = math.Max(d, math.Abs(v-other.data[i]))
	}
	return d
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic("mat: Mul shape mismatch")
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range a.data[i*a.cols : (i+1)*a.cols] {
			for j, bv := range b.data[k*b.cols : (k+1)*b.cols] {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Sub returns x - y as a new slice.
func Sub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("mat: Sub length mismatch")
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// NewCholesky factors the symmetric positive definite matrix a into a
// fresh factor (Factor with no jitter).
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// L returns a copy of the lower-triangular factor as a dense matrix.
func (c *Cholesky) L() *Matrix {
	m := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(m.RawRow(i)[:i+1], c.row(i))
	}
	return m
}

// Reconstruct returns L·Lᵀ.
func (c *Cholesky) Reconstruct() *Matrix {
	l := c.L()
	return Mul(l, l.T())
}

// SolveLowerVec solves L·y = b into a new slice.
func (c *Cholesky) SolveLowerVec(b []float64) []float64 {
	return c.SolveLowerVecInto(make([]float64, c.n), b)
}
