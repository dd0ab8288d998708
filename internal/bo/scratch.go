package bo

import (
	"sync"

	"autrascale/internal/dataflow"
)

// A fleet of controllers calls SuggestWith thousands of times per tick
// wave, and every call used to rebuild the same candidate-pool buffers:
// the encoded float matrix, the acquisition/mean/std/resource arrays,
// the point index and posterior memo, and the backing array every
// candidate, neighbour, climb vector and memo key is carved from.
// suggestScratch bundles them and a process-wide sync.Pool recycles the
// bundle across controllers, so a steady-state suggestion allocates a
// constant number of objects, however many candidates it scores.
//
// Candidate vectors alias sc.backing, so anything that outlives the
// suggestion (the returned vector) must be cloned
// before release returns the scratch to the pool.
type suggestScratch struct {
	enc       []float64
	xs        [][]float64
	acqVals   []float64
	means     []float64
	stds      []float64
	resources []float64
	eligible  []bool
	buf       []float64
	// points numbers the pool's candidates by pool position, then the
	// climb points the memo adds; memo[i] is entry i's posterior.
	points     pointIndex
	memo       []posterior
	candidates []dataflow.ParallelismVector
	backing    dataflow.ParallelismVector
}

var suggestScratchPool = sync.Pool{New: func() any { return new(suggestScratch) }}

func getSuggestScratch() *suggestScratch { return suggestScratchPool.Get().(*suggestScratch) }

// release empties the scratch (keeping capacity) and pools it.
func (sc *suggestScratch) release() {
	sc.enc = sc.enc[:0]
	sc.xs = sc.xs[:0]
	sc.acqVals = sc.acqVals[:0]
	sc.means = sc.means[:0]
	sc.stds = sc.stds[:0]
	sc.resources = sc.resources[:0]
	sc.eligible = sc.eligible[:0]
	sc.points.reset()
	sc.memo = sc.memo[:0]
	sc.candidates = sc.candidates[:0]
	sc.backing = sc.backing[:0]
	suggestScratchPool.Put(sc)
}

// carve extends sc.backing by dim and returns the new full-capacity
// sub-slice. Growing reallocates the tail only; vectors carved earlier
// keep pointing at their original storage.
func (sc *suggestScratch) carve(dim int) dataflow.ParallelismVector {
	start := len(sc.backing)
	if cap(sc.backing) < start+dim {
		grown := make(dataflow.ParallelismVector, start, 2*(start+dim))
		copy(grown, sc.backing)
		sc.backing = grown
	}
	sc.backing = sc.backing[:start+dim]
	return sc.backing[start : start+dim : start+dim]
}

// uncarve gives back the most recent carve (the draw was a duplicate).
func (sc *suggestScratch) uncarve(dim int) {
	sc.backing = sc.backing[:len(sc.backing)-dim]
}

// neighbors carves into sc.backing each lattice point reachable from p
// by changing one operator's parallelism by ±step, clamped to s in place,
// and hands every one that differs from p to keep, operator by operator,
// −step first. A neighbour equal to p is uncarved; keep owns the rest,
// each the most recent carve when it is handed over.
func (sc *suggestScratch) neighbors(s Space, p dataflow.ParallelismVector, step int, keep func(dataflow.ParallelismVector)) {
	for i := range p {
		for _, d := range [...]int{-step, step} {
			q := sc.carve(len(p))
			copy(q, p)
			q[i] += d
			s.clampInPlace(q)
			if q.Equal(p) {
				sc.uncarve(len(p))
				continue
			}
			keep(q)
		}
	}
}

// floatsFor returns s resized to length n with at least extra spare
// capacity, reusing the old backing when it fits. Contents are
// unspecified; callers overwrite every element.
func floatsFor(s []float64, n, extra int) []float64 {
	if cap(s) < n+extra {
		return make([]float64, n, n+extra)
	}
	return s[:n]
}

func boolsFor(s []bool, n, extra int) []bool {
	if cap(s) < n+extra {
		return make([]bool, n, n+extra)
	}
	return s[:n]
}
