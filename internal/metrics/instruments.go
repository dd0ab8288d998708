package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The store's series are gauge-style time series (every sample kept).
// Controllers also need cheap *instruments*: monotonically increasing
// counters (how many rescales, how many replans) and bucketed
// histograms (BO iteration counts, decision margins, step durations)
// whose cost does not grow with run length. Counters and histograms are
// registered on the Store so WriteExposition renders everything —
// series, counters, buckets — through one endpoint.

// Counter is a monotonically increasing count. Safe for concurrent use;
// Inc/Add are lock-free.
//
// A Counter is deliberately just its eight bytes: controllers create
// them by the dozen per job, and a pointer-free 8-byte object costs the
// allocator and the GC next to nothing (growing it to carry its own
// exposition text made fleet.Submit with a store 25% slower). Its name
// lives in the registry key and its rendered prefix in the exposition
// order.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta float64) {
	if delta <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket i counts observations <= Buckets[i], plus an
// implicit +Inf bucket).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []uint64  // len(bounds)+1; last is the +Inf bucket
	sum     float64
	samples uint64

	key SeriesKey
	// Exposition prefixes (expositionOrder.render): one
	// `name_bucket{labels,le="b"} ` per entry of counts, then the `_sum`
	// and `_count` lines'.
	bucketLines        []string
	sumLine, countLine string
}

// newHistogram copies and sorts the bounds.
func newHistogram(key SeriesKey, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{key: key, bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Counter returns (creating on first use) the counter with the given
// name and tags. Existing instruments resolve with a lock-free read.
func (s *Store) Counter(name string, tags map[string]string) *Counter {
	key := SeriesKey{Name: name, Tags: encodeTags(tags)}
	if c, ok := s.counters.Load(key); ok {
		return c.(*Counter)
	}
	c, loaded := s.counters.LoadOrStore(key, &Counter{})
	if !loaded {
		s.invalidateOrder()
	}
	return c.(*Counter)
}

// Histogram returns (creating on first use) the histogram with the
// given name, tags, and bucket upper bounds. Bounds are fixed at
// creation; later calls with different bounds reuse the existing
// instrument unchanged. Existing instruments resolve with a lock-free
// read.
func (s *Store) Histogram(name string, tags map[string]string, bounds []float64) *Histogram {
	key := SeriesKey{Name: name, Tags: encodeTags(tags)}
	if h, ok := s.histograms.Load(key); ok {
		return h.(*Histogram)
	}
	h, loaded := s.histograms.LoadOrStore(key, newHistogram(key, bounds))
	if !loaded {
		s.invalidateOrder()
	}
	return h.(*Histogram)
}
