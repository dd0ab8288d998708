package bo

import (
	"sync"

	"autrascale/internal/dataflow"
)

// A fleet of controllers calls SuggestWith thousands of times per tick
// wave, and every call used to rebuild the same candidate-pool buffers:
// the encoded float matrix, the acquisition/mean/std/resource arrays,
// the evaluated-point and posterior-memo maps, and the backing array the
// near-base samples are carved from. suggestScratch bundles them and a
// process-wide sync.Pool recycles the bundle across controllers, so
// steady-state suggestions reuse warm buffers instead of re-allocating
// ~10 slices and 3 maps each.
//
// Candidate vectors may alias sc.backing, so anything that outlives the
// suggestion (the returned vector, SuggestionStats.Par) must be cloned
// before release returns the scratch to the pool.
type suggestScratch struct {
	enc        []float64
	xs         [][]float64
	acqVals    []float64
	means      []float64
	stds       []float64
	resources  []float64
	eligible   []bool
	evaluated  map[string]bool
	memo       map[string]posterior
	candidates []dataflow.ParallelismVector
	candKeys   []string
	seen       map[string]bool
	backing    dataflow.ParallelismVector
}

var suggestScratchPool = sync.Pool{New: func() any {
	return &suggestScratch{
		evaluated: make(map[string]bool, 64),
		memo:      make(map[string]posterior, 256),
		seen:      make(map[string]bool, 256),
	}
}}

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
	clear(sc.evaluated)
	clear(sc.memo)
	sc.candidates = sc.candidates[:0]
	sc.candKeys = sc.candKeys[:0]
	clear(sc.seen)
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
