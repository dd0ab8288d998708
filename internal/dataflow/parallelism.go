package dataflow

import (
	"fmt"
	"strconv"
	"strings"
)

// ParallelismVector assigns one parallelism per operator, indexed like the
// graph's operators. This is the vector k = (k_1, ..., k_N) of the paper.
type ParallelismVector []int

// Uniform returns a vector of n copies of k.
func Uniform(n, k int) ParallelismVector {
	v := make(ParallelismVector, n)
	for i := range v {
		v[i] = k
	}
	return v
}

// Clone returns a copy.
func (p ParallelismVector) Clone() ParallelismVector {
	return append(ParallelismVector(nil), p...)
}

// Total returns the sum of parallelisms (total slots / resource units).
func (p ParallelismVector) Total() int {
	var s int
	for _, k := range p {
		s += k
	}
	return s
}

// Equal reports elementwise equality.
func (p ParallelismVector) Equal(q ParallelismVector) bool {
	if len(p) != len(q) {
		return false
	}
	for i, k := range p {
		if k != q[i] {
			return false
		}
	}
	return true
}

// Validate checks every parallelism is in [1, maxP] (maxP <= 0 disables
// the upper check).
func (p ParallelismVector) Validate(maxP int) error {
	if len(p) == 0 {
		return fmt.Errorf("dataflow: empty parallelism vector")
	}
	for i, k := range p {
		if k < 1 {
			return fmt.Errorf("dataflow: operator %d parallelism %d < 1", i, k)
		}
		if maxP > 0 && k > maxP {
			return fmt.Errorf("dataflow: operator %d parallelism %d > max %d", i, k, maxP)
		}
	}
	return nil
}

// Floats converts to a []float64 (GP/BO input encoding).
func (p ParallelismVector) Floats() []float64 {
	out := make([]float64, len(p))
	for i, k := range p {
		out[i] = float64(k)
	}
	return out
}

// FromFloats rounds a float vector back to a parallelism vector, clamping
// at a minimum of 1.
func FromFloats(xs []float64) ParallelismVector {
	out := make(ParallelismVector, len(xs))
	for i, x := range xs {
		k := int(x + 0.5)
		if k < 1 {
			k = 1
		}
		out[i] = k
	}
	return out
}

// Max returns the largest entry (0 for an empty vector).
func (p ParallelismVector) Max() int {
	var m int
	for _, k := range p {
		if k > m {
			m = k
		}
	}
	return m
}

// String renders like the paper: (k1, k2, ..., kN). It sizes the text
// first and builds it in one allocation: every traced span's "par"
// attribute goes through here.
func (p ParallelismVector) String() string {
	var digits [20]byte
	n := len("()")
	for i, k := range p {
		if i > 0 {
			n += len(", ")
		}
		n += len(strconv.AppendInt(digits[:0], int64(k), 10))
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('(')
	for i, k := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.Write(strconv.AppendInt(digits[:0], int64(k), 10))
	}
	b.WriteByte(')')
	return b.String()
}
