package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (0 for an empty sample).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so a
// spread computed here is the number the PR driver computes from the same
// values. Fewer than two samples have no spread: all three cuts are the
// sample (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// minTailSamples is how many samples must lie beyond a reported
// percentile: a p99 over 200 samples is the second-largest value, which is
// an anecdote, not a percentile.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// xs. It refuses a percentile with fewer than minTailSamples samples
// beyond it — p99 needs 1,000 samples, p95 needs 200.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; beyond < minTailSamples-1e-9 {
		return 0, fmt.Errorf("p%v over %d samples leaves %.1f beyond it, want >= %d",
			p, n, beyond, minTailSamples)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	return s[max(rank, 1)-1], nil
}

// tailLadder is the set of percentiles highestPercentile picks from.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// highestPercentile returns the highest percentile of the ladder, at or
// below atMost, that xs supports under the minTailSamples rule; ok is
// false when even p75 has too few samples beyond it (fewer than 40).
func highestPercentile(xs []float64, atMost float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if p > atMost {
			continue
		}
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// spread summarizes how far repeated measurements of one metric scatter.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQRShare is (Q3−Q1)/median — the spread the PR driver holds
	// against a metric's bound; RangeShare is (max−min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
}

// summarize aggregates the repeats of one metric.
func summarize(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := sorted(xs)
	q1, q2, q3 := quartiles(s)
	sp := spread{N: len(s), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
	if q2 != 0 {
		sp.IQRShare = (q3 - q1) / math.Abs(q2)
		sp.RangeShare = (sp.Max - sp.Min) / math.Abs(q2)
	}
	return sp
}
