package metrics

import (
	"fmt"
	"sync"
)

// Series is the resolve-once handle of one last-value gauge: Store.Series
// pays the tag encoding and registry lookup, Append is then a per-series
// lock and a field write with no allocation. Safe for concurrent use.
//
// A handle whose series was dropped from the store (DropTagged) is
// detached: Append and Latest keep working on the sample it holds, but
// the store no longer exposes or finds it.
type Series struct {
	key SeriesKey
	// prefix is the rendered `name{labels} ` exposition prefix, filled in
	// by the first scrape that lists the series (expositionOrder.render).
	prefix string

	mu   sync.Mutex
	last Point
	set  bool
}

// Append records a sample as the series' newest. Samples are expected in
// non-decreasing time order; an out-of-order sample is rejected with an
// error.
func (sr *Series) Append(t, v float64) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.set && sr.last.TimeSec > t {
		return fmt.Errorf("metrics: out-of-order sample for %s@%s: %v after %v",
			sr.key.Name, sr.key.Tags, t, sr.last.TimeSec)
	}
	sr.last, sr.set = Point{TimeSec: t, Value: v}, true
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
	return sr.last, sr.set
}
