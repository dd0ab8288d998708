// Package metrics is the in-memory substitute for the paper's InfluxDB
// deployment: tagged last-value gauges plus counters and histograms, and
// their Prometheus text exposition.
//
// Series names follow the Flink metric path convention the paper cites,
// e.g. "taskmanager.job.task.trueProcessingRate".
package metrics

import (
	"sort"
	"strings"
	"sync"
)

// Point is one sample of a series.
type Point struct {
	TimeSec float64
	Value   float64
}

// SeriesKey identifies a series (or a counter or histogram): a metric
// name plus sorted tag pairs.
type SeriesKey struct {
	Name string
	Tags string // canonical "k1=v1,k2=v2" encoding
}

// encodeTags canonicalizes a tag map.
func encodeTags(tags map[string]string) string {
	switch len(tags) {
	case 0:
		return ""
	case 1: // the common {"job": name}: nothing to sort or join
		for k, v := range tags {
			return k + "=" + v
		}
	}
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + tags[k]
	}
	return strings.Join(parts, ",")
}

// Store is a concurrency-safe registry of last-value gauge series.
// Besides them it registers counter/histogram instruments (see
// instruments.go) so one exposition pass covers both.
//
// Everything the store hands out follows one rule: resolve once, append
// many. Series, Counter and Histogram each return a handle; resolving
// one encodes the tags and consults a registry, using one is a per-handle
// lock or atomic with no allocation. Hot paths cache the handle —
// MustRecord and Latest below are the same operations with the
// resolution paid on every call.
type Store struct {
	mu     sync.RWMutex
	series map[SeriesKey]*Series
	// order caches everything registered, in exposition order; stale
	// until first built and whenever something was added or dropped
	// since.
	order *expositionOrder
	stale bool

	counters   sync.Map // SeriesKey -> *Counter
	histograms sync.Map // SeriesKey -> *Histogram
}

// expositionOrder is the store's contents sorted by (name, tags), which
// a scrape walks. A published value is never mutated, so it is read unlocked.
type expositionOrder struct {
	series     []*Series
	counters   []counterEntry
	histograms []*Histogram
}

// counterEntry lists one counter with its rendered `name_total{labels} `
// exposition prefix (see Counter for why it is not on the Counter).
type counterEntry struct {
	key  SeriesKey
	line string
	c    *Counter
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{series: map[SeriesKey]*Series{}, stale: true}
}

// Series returns (creating on first use) the handle of the series with
// the given name and tags.
func (s *Store) Series(name string, tags map[string]string) *Series {
	key := SeriesKey{Name: name, Tags: encodeTags(tags)}
	if sr := s.lookup(key); sr != nil {
		return sr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[key]
	if sr == nil {
		sr = &Series{key: key}
		s.series[key] = sr
		s.stale = true
	}
	return sr
}

// lookup returns the series stored under key, or nil.
func (s *Store) lookup(key SeriesKey) *Series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.series[key]
}

// invalidateOrder marks the cached exposition order stale. The caller
// has already made its registry change visible, so the next ordered()
// rebuild sees it.
func (s *Store) invalidateOrder() {
	s.mu.Lock()
	s.stale = true
	s.mu.Unlock()
}

// ordered returns the exposition order, rebuilding it if the store's
// contents changed since the last call.
func (s *Store) ordered() *expositionOrder {
	s.mu.RLock()
	o, stale := s.order, s.stale
	s.mu.RUnlock()
	if !stale {
		return o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stale {
		o = &expositionOrder{series: make([]*Series, 0, len(s.series))}
		for _, sr := range s.series {
			o.series = append(o.series, sr)
		}
		s.counters.Range(func(k, c any) bool {
			o.counters = append(o.counters, counterEntry{key: k.(SeriesKey), c: c.(*Counter)})
			return true
		})
		s.histograms.Range(func(_, h any) bool {
			o.histograms = append(o.histograms, h.(*Histogram))
			return true
		})
		sort.Slice(o.series, func(i, j int) bool { return keyLess(o.series[i].key, o.series[j].key) })
		sort.Slice(o.counters, func(i, j int) bool { return keyLess(o.counters[i].key, o.counters[j].key) })
		sort.Slice(o.histograms, func(i, j int) bool { return keyLess(o.histograms[i].key, o.histograms[j].key) })
		o.render(s.order)
		s.order, s.stale = o, false
	}
	return s.order
}

// keyLess orders (name, tags) pairs the way the exposition lists them.
func keyLess(a, b SeriesKey) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Tags < b.Tags
}

// MustRecord records a sample as the named series' newest and panics if
// it is out of order (simulator-internal writes are ordered by construction).
func (s *Store) MustRecord(name string, tags map[string]string, t, v float64) {
	s.Series(name, tags).MustAppend(t, v)
}

// Latest returns the most recent sample of the series, or false.
func (s *Store) Latest(name string, tags map[string]string) (Point, bool) {
	return s.lookup(SeriesKey{Name: name, Tags: encodeTags(tags)}).Latest()
}

// Len returns the number of stored series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// DropTagged removes every series, counter and histogram whose tag key
// carries one of the given values — how a fleet releases a removed job's
// telemetry (key "job") — and returns how many it dropped. It scans
// everything registered, which suits an admin operation, not a hot path.
// Handles resolved earlier are detached: using one still succeeds, but
// nothing it holds is exposed or found by name again, and resolving the
// same name and tags afterwards starts a fresh series or instrument.
func (s *Store) DropTagged(key string, values ...string) int {
	want := make(map[string]bool, len(values))
	for _, v := range values {
		want[v] = true
	}
	drop := func(tags string) bool {
		v, ok := tagValue(tags, key)
		return ok && want[v]
	}
	dropped := 0
	s.mu.Lock()
	for k := range s.series {
		if drop(k.Tags) {
			delete(s.series, k)
			dropped++
		}
	}
	s.mu.Unlock()
	for _, m := range []*sync.Map{&s.counters, &s.histograms} {
		m.Range(func(k, _ any) bool {
			if drop(k.(SeriesKey).Tags) {
				m.Delete(k)
				dropped++
			}
			return true
		})
	}
	s.invalidateOrder()
	return dropped
}

// tagValue extracts one tag from the canonical "k1=v1,k2=v2" encoding.
func tagValue(encoded, key string) (string, bool) {
	for encoded != "" {
		var part string
		part, encoded, _ = strings.Cut(encoded, ",")
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return v, true
		}
	}
	return "", false
}

// Canonical metric names (Flink-style paths as exposed in the paper §V-E).
const (
	MetricTrueProcessingRate = "taskmanager.job.task.trueProcessingRate"
	MetricObservedRate       = "taskmanager.job.task.observedProcessingRate"
	MetricInputRate          = "taskmanager.job.task.numRecordsInPerSecond"
	MetricLatencyMS          = "taskmanager.job.latency"
	MetricEventTimeLatencyMS = "taskmanager.job.eventTimeLatency"
	MetricThroughput         = "taskmanager.job.throughput"
	MetricKafkaLag           = "kafka.consumer.recordsLag"
)
