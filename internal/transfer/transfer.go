// Package transfer implements AuTraScale's transfer-learning method
// (paper §III-F, Algorithm 2). When the input data rate changes, training
// a benefit model from scratch is too expensive, so AuTraScale:
//
//  1. picks the existing benefit model M_{c−1} whose rate is closest to
//     the new rate (ModelLibrary.Nearest),
//  2. fits a *residual* Gaussian process M'_c on the few real samples
//     available at the new rate, targeting s_t − μ_{c−1}(k_t),
//  3. estimates the score of any untried configuration as
//     μ_c(x) = μ_{c−1}(x) + μ'_c(x), saving the cost of actually running
//     the bootstrap set, and
//  4. switches back to plain Bayesian optimization once at least N_num
//     real samples exist at the new rate.
package transfer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"autrascale/internal/gp"
)

// Predictor is the subset of a fitted model the residual learner needs.
type Predictor interface {
	// PredictMean returns the posterior mean at x.
	PredictMean(x []float64) float64
}

// Sample is one (configuration, score) pair at the new rate.
type Sample struct {
	X []float64
	Y float64
}

// ResidualModel combines a previous-rate model with a GP fitted on the
// residuals of new-rate samples.
type ResidualModel struct {
	prev     Predictor
	residual *gp.Regressor
}

// FitResidual trains the residual GP M'_c of Algorithm 2 (lines 2–5):
// targets are s_t − μ_{c−1}(k_t) for each real sample at the new rate.
func FitResidual(prev Predictor, samples []Sample) (*ResidualModel, error) {
	if prev == nil {
		return nil, errors.New("transfer: nil previous model")
	}
	if len(samples) == 0 {
		return nil, errors.New("transfer: need at least one sample at the new rate")
	}
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if len(s.X) == 0 {
			return nil, fmt.Errorf("transfer: sample %d has empty input", i)
		}
		xs[i] = append([]float64(nil), s.X...)
		ys[i] = s.Y - prev.PredictMean(s.X)
	}
	res, err := Fit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("transfer: residual fit: %w", err)
	}
	return &ResidualModel{prev: prev, residual: res}, nil
}

// PredictMean returns μ_c(x) = μ_{c−1}(x) + μ'_c(x) (Algorithm 2,
// lines 9–11).
func (m *ResidualModel) PredictMean(x []float64) float64 {
	return m.prev.PredictMean(x) + m.residual.PredictMean(x)
}

// Entry is a stored benefit model bound to an input data rate.
type Entry struct {
	RateRPS float64
	Model   Predictor
}

// ModelLibrary is the Plan stage's model store (§IV): benefit models keyed
// by the input data rate they were trained at. It is safe for concurrent
// use — a fleet of controllers shares one library, publishing models from
// worker goroutines while submissions read it for warm starts.
//
// The store is copy-on-write: an atomic pointer to an immutable slice
// sorted by rate. Readers (Nearest, Get, Rates, Entries) never take
// a lock — they load the current snapshot and binary-search it — so a
// fleet's warm-start lookups scale with reader count instead of
// serializing on a mutex. Writers clone the slice under a small mutex
// that only other writers contend on.
//
// Stored models are immutable and safe to share: nothing mutates a model
// once it is in a library, and prediction only reads it, so one model may
// sit in many libraries at once and serve concurrent readers.
type ModelLibrary struct {
	writeMu sync.Mutex              // serializes writers; readers never take it
	entries atomic.Pointer[[]Entry] // immutable, sorted by RateRPS ascending
}

// NewModelLibrary returns an empty library.
func NewModelLibrary() *ModelLibrary { return &ModelLibrary{} }

// snapshot returns the current immutable entry slice (nil when empty).
func (l *ModelLibrary) snapshot() []Entry {
	p := l.entries.Load()
	if p == nil {
		return nil
	}
	return *p
}

// searchRate returns the first index whose rate is >= rateRPS.
func searchRate(entries []Entry, rateRPS float64) int {
	return sort.Search(len(entries), func(i int) bool { return entries[i].RateRPS >= rateRPS })
}

// Put stores (or replaces) the model for a rate. The visible snapshot
// switches atomically: concurrent readers see either the old or the new
// library, never a partial write.
func (l *ModelLibrary) Put(rateRPS float64, model Predictor) error {
	return l.PutAll([]Entry{{RateRPS: rateRPS, Model: model}})
}

// PutAll stores (or replaces) every entry in one write, leaving the
// library exactly as the same sequence of Puts would — a later entry wins
// over an earlier one at the same rate — but copying the stored slice
// once instead of once per entry, so filling a library of n models costs
// O(n log n), not O(n²). Every entry is validated first: on error the
// library is unchanged. The caller's slice is never modified or retained.
func (l *ModelLibrary) PutAll(entries []Entry) error {
	for _, e := range entries {
		if e.RateRPS <= 0 {
			return errors.New("transfer: rate must be > 0")
		}
		if e.Model == nil {
			return errors.New("transfer: nil model")
		}
	}
	if !strictlyAscending(entries) {
		sorted := slices.Clone(entries)
		slices.SortStableFunc(sorted, func(a, b Entry) int { return cmp.Compare(a.RateRPS, b.RateRPS) })
		// Keep the last entry of each run of equal rates.
		entries = sorted[:0]
		for i, e := range sorted {
			if i+1 == len(sorted) || sorted[i+1].RateRPS != e.RateRPS {
				entries = append(entries, e)
			}
		}
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	next := merge(l.snapshot(), entries)
	l.entries.Store(&next)
	return nil
}

// strictlyAscending reports whether entries are sorted by rate with no
// rate repeated — already in the stored form.
func strictlyAscending(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].RateRPS >= entries[i].RateRPS {
			return false
		}
	}
	return true
}

// merge returns a new slice holding cur and add, both strictly ascending
// by rate; at a rate both hold, add's entry wins. Runs of cur between two
// added rates are copied whole.
func merge(cur, add []Entry) []Entry {
	next := make([]Entry, 0, len(cur)+len(add))
	i := 0
	for _, e := range add {
		k := i + searchRate(cur[i:], e.RateRPS)
		next = append(next, cur[i:k]...)
		i = k
		if i < len(cur) && cur[i].RateRPS == e.RateRPS {
			i++
		}
		next = append(next, e)
	}
	return append(next, cur[i:]...)
}

// Len returns the number of stored models.
func (l *ModelLibrary) Len() int { return len(l.snapshot()) }

// Nearest returns the stored model whose rate is closest to rateRPS
// (Algorithm 2's M_{c−1}); ok is false when the library is empty. The
// lookup is a lock-free binary search; an exact tie between two
// neighboring rates resolves to the lower rate (matching the historical
// first-wins linear scan).
func (l *ModelLibrary) Nearest(rateRPS float64) (Entry, bool) {
	entries := l.snapshot()
	if len(entries) == 0 {
		return Entry{}, false
	}
	i := searchRate(entries, rateRPS)
	switch {
	case i == 0:
		return entries[0], true
	case i == len(entries):
		return entries[len(entries)-1], true
	}
	left, right := entries[i-1], entries[i]
	if abs(left.RateRPS-rateRPS) <= abs(right.RateRPS-rateRPS) {
		return left, true
	}
	return right, true
}

// Rates lists the stored rates in ascending order.
func (l *ModelLibrary) Rates() []float64 {
	entries := l.snapshot()
	out := make([]float64, len(entries))
	for i, e := range entries {
		out[i] = e.RateRPS
	}
	return out
}

// Entries returns the current immutable snapshot, sorted by rate
// ascending. The returned slice is shared with concurrent readers and
// MUST NOT be modified; it is valid forever (later Puts swap in a new
// slice). Hot paths (the fleet's round barrier) iterate it instead of
// allocating through Rates/Get pairs.
func (l *ModelLibrary) Entries() []Entry { return l.snapshot() }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
