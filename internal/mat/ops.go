package mat

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
