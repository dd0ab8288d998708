// Package mat provides the dense linear algebra needed by the Gaussian
// process and Bayesian optimization layers: vectors, row-major matrices,
// and an incrementally extensible Cholesky factorization with its
// triangular solves.
//
// The package is deliberately small and self-contained (stdlib only). All
// operations are on float64. Matrices are row-major and sized by Resize,
// so one work matrix serves fits of every size. Operations validate
// dimensions and panic on programmer errors (mismatched shapes), but
// return errors for data-dependent failures such as a
// non-positive-definite matrix handed to Cholesky.
package mat

import (
	"fmt"
	"strings"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// Resize reshapes m to rows x cols, reusing its storage when it is large
// enough, so one work matrix can serve fits of varying size. The zero
// Matrix may be resized. The contents are unspecified afterwards: callers
// write every element they read.
func (m *Matrix) Resize(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	if cap(m.data) < rows*cols {
		m.data = make([]float64, rows*cols)
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:rows*cols]
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns row i without copying. The caller must not hold the slice
// across mutations of the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
