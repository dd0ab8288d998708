// Package bo implements the Bayesian-optimization machinery of AuTraScale
// (paper §III-D/E): the bounded parallelism search space, the bootstrap
// sample design, the latency/resource scoring function (Eq. 4), the
// expected-improvement acquisition function with exploration parameter ξ
// (Eq. 5–7), the benefit-score termination threshold (Eq. 9), and an
// Optimizer that fits the GP surrogate and suggests the next
// configuration to run.
package bo

import (
	"errors"
	"fmt"
	"slices"

	"autrascale/internal/dataflow"
	"autrascale/internal/stat"
)

// Space is the BO search domain: per-operator parallelism between the
// throughput-optimal base configuration k' (inclusive lower bound — §III-C:
// the throughput optimum is the *minimum* parallelism considered) and the
// system ceiling P_max.
type Space struct {
	Base dataflow.ParallelismVector // k', lower bound per operator
	PMax int                        // upper bound for every operator
}

// NewSpace validates and builds a Space.
func NewSpace(base dataflow.ParallelismVector, pmax int) (Space, error) {
	if err := base.Validate(0); err != nil {
		return Space{}, err
	}
	if pmax < base.Max() {
		return Space{}, fmt.Errorf("bo: PMax %d below base max %d", pmax, base.Max())
	}
	return Space{Base: base.Clone(), PMax: pmax}, nil
}

// Dim returns the number of operators.
func (s Space) Dim() int { return len(s.Base) }

// Contains reports whether p lies inside the space.
func (s Space) Contains(p dataflow.ParallelismVector) bool {
	if len(p) != len(s.Base) {
		return false
	}
	for i, k := range p {
		if k < s.Base[i] || k > s.PMax {
			return false
		}
	}
	return true
}

// Clamp projects p into the space.
func (s Space) Clamp(p dataflow.ParallelismVector) dataflow.ParallelismVector {
	out := p.Clone()
	s.clampInPlace(out)
	return out
}

// clampInPlace projects p into the space, overwriting it.
func (s Space) clampInPlace(p dataflow.ParallelismVector) {
	for i := range p {
		if p[i] < s.Base[i] {
			p[i] = s.Base[i]
		}
		if p[i] > s.PMax {
			p[i] = s.PMax
		}
	}
}

// RandomPoint draws a uniform lattice point from the space.
func (s Space) RandomPoint(rng *stat.RNG) dataflow.ParallelismVector {
	out := make(dataflow.ParallelismVector, len(s.Base))
	s.RandomPointInto(rng, out)
	return out
}

// RandomPointInto draws a uniform lattice point into dst (len(s.Base)),
// the allocation-free companion of RandomPoint. It consumes the same rng
// draws, so the two are interchangeable without perturbing seeded runs.
func (s Space) RandomPointInto(rng *stat.RNG, dst dataflow.ParallelismVector) {
	for i, lo := range s.Base {
		dst[i] = lo + rng.Intn(s.PMax-lo+1)
	}
}

// BootstrapSet builds the initial training design of §III-D:
//
//  1. the base configuration k' itself — the anchor of the search space
//     (the score's resource term is maximal there, so the surrogate must
//     know that corner);
//  2. M "uniform" samples: all operators share one parallelism, starting
//     at k'_max = max_i Base_i, stepping in equal intervals up to PMax;
//  3. N "one-hot" samples: one operator at PMax, the rest at Base —
//     letting the GP see each operator's individual impact.
//
// Duplicates are removed while preserving order. M must be >= 1.
func (s Space) BootstrapSet(m int) ([]dataflow.ParallelismVector, error) {
	if m < 1 {
		return nil, errors.New("bo: bootstrap M must be >= 1")
	}
	kmax := s.Base.Max()
	var set []dataflow.ParallelismVector
	add := func(p dataflow.ParallelismVector) {
		p = s.Clamp(p)
		if !slices.ContainsFunc(set, p.Equal) {
			set = append(set, p)
		}
	}
	add(s.Base.Clone())
	// Uniform samples.
	if m == 1 || s.PMax == kmax {
		add(uniformAtLeast(s.Base, kmax))
	} else {
		interval := float64(s.PMax-kmax) / float64(m-1)
		for i := 0; i < m; i++ {
			level := kmax + int(float64(i)*interval+0.5)
			add(uniformAtLeast(s.Base, level))
		}
	}
	// One-hot samples.
	for i := range s.Base {
		p := s.Base.Clone()
		p[i] = s.PMax
		add(p)
	}
	return set, nil
}

// uniformAtLeast sets every operator to max(level, base_i).
func uniformAtLeast(base dataflow.ParallelismVector, level int) dataflow.ParallelismVector {
	out := base.Clone()
	for i := range out {
		if out[i] < level {
			out[i] = level
		}
	}
	return out
}
