package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Retention. A series keeps its points in fixed-size chunks and recycles
// the oldest chunk once maxChunks are full, so memory per series is
// bounded and growth never re-copies history. The cap is sized from the
// readers in this tree: the longest window any of them asks for is the
// policy-running window (30 s warm-up + 120 s measurement = 150 samples
// at the 1 s tick), and the store's own tests read back whole 500-sample
// series; seven full chunks (896 samples, ~15 simulated minutes) cover
// both with room to spare.
const (
	chunkPoints = 128
	maxChunks   = 8

	// retentionPoints is the most samples one series retains. A series
	// that has wrapped holds between retentionPoints-chunkPoints+1 and
	// retentionPoints of its newest samples; Window sees only those, and
	// Latest is unaffected.
	retentionPoints = chunkPoints * maxChunks
)

// Series is the resolve-once handle of one series: Store.Series pays the
// tag encoding and registry lookup, Append is then a per-series lock and
// a slot write — no allocation beyond a new chunk every chunkPoints
// samples until the retention cap, none after. Safe for concurrent use.
//
// A handle whose series was dropped from the store (DropTagged) is
// detached: Append and the readers keep working on the points it
// holds, but the store no longer exposes or finds them.
type Series struct {
	key SeriesKey
	// prefix is the rendered `name{labels} ` exposition prefix, filled in
	// by the first scrape that lists the series (expositionOrder.render).
	prefix string

	mu sync.Mutex
	// chunks holds the retained points oldest first; every chunk but the
	// last is full (chunkPoints long).
	chunks [][]Point
}

// Append adds a sample. Samples are expected in non-decreasing time
// order; an out-of-order sample is rejected with an error.
func (sr *Series) Append(t, v float64) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	k := len(sr.chunks)
	if k > 0 {
		if tail := sr.chunks[k-1]; tail[len(tail)-1].TimeSec > t {
			return fmt.Errorf("metrics: out-of-order sample for %s@%s: %v after %v",
				sr.key.Name, sr.key.Tags, t, tail[len(tail)-1].TimeSec)
		}
	}
	switch {
	case k > 0 && len(sr.chunks[k-1]) < chunkPoints:
		// Room in the tail chunk.
	case k == maxChunks:
		// At the cap: the oldest chunk's memory becomes the new tail.
		oldest := sr.chunks[0][:0]
		copy(sr.chunks, sr.chunks[1:])
		sr.chunks[k-1] = oldest
	case k == 0:
		// The first chunk grows by doubling, so a series that only ever
		// holds a few points (one gauge per job) stays a few bytes.
		sr.chunks = append(sr.chunks, nil)
		k = 1
	default:
		sr.chunks = append(sr.chunks, make([]Point, 0, chunkPoints))
		k++
	}
	sr.chunks[k-1] = append(sr.chunks[k-1], Point{TimeSec: t, Value: v})
	return nil
}

// MustAppend is Append but panics on error (simulator-internal writes
// are ordered by construction).
func (sr *Series) MustAppend(t, v float64) {
	if err := sr.Append(t, v); err != nil {
		panic(err)
	}
}

// Latest returns the most recent sample, or false for an empty (or nil)
// series.
func (sr *Series) Latest() (Point, bool) {
	if sr == nil {
		return Point{}, false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	k := len(sr.chunks)
	if k == 0 {
		return Point{}, false
	}
	tail := sr.chunks[k-1]
	return tail[len(tail)-1], true
}

// Window returns a copy of the retained samples with TimeSec in
// [from, to]; empty for a nil series or an inverted range.
func (sr *Series) Window(from, to float64) []Point {
	if sr == nil {
		return []Point{}
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := 0
	if k := len(sr.chunks); k > 0 {
		n = (k-1)*chunkPoints + len(sr.chunks[k-1])
	}
	at := func(i int) Point { return sr.chunks[i/chunkPoints][i%chunkPoints] }
	lo := sort.Search(n, func(i int) bool { return at(i).TimeSec >= from })
	hi := max(lo, sort.Search(n, func(i int) bool { return at(i).TimeSec > to }))
	out := make([]Point, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, at(i))
	}
	return out
}
