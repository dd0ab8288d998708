package mat

import "math"

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

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
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

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SqDist returns the squared Euclidean distance between x and y.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: SqDist length mismatch")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}
