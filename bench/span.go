package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the harness made into a layer. Times are
// nanoseconds since the recorder's epoch. Parent is the index of the span
// that caused this one (-1 for a top-level span); spans of one run (one
// job, one session, one snapshot cycle) share Run. Value carries a count
// measured at the same boundary (simulated seconds a plan consumed, bytes
// an encode produced).
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Value  float64 `json:"value,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory; nothing is written until flush. The
// nil recorder is the untraced pass: begin returns -1 and end is a no-op,
// so call sites need no branches. Safe for concurrent use (fleet workers
// record plan spans from their own goroutines).
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (r *spanRecorder) begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Run: run})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes span id, attaching value (0 for none).
func (r *spanRecorder) end(id int, value float64) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Value = value
	r.mu.Unlock()
}

// add records a span whose start and end the caller measured itself (both
// as offsets from the recorder's epoch).
func (r *spanRecorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// flush writes the spans to path as JSON — called once, at exit.
func (r *spanRecorder) flush(path string) error {
	blob, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its direct children cover. Children may overlap each
// other (parallel workers) or stick out of the parent (a clock read on
// another goroutine): the union of their intervals, clipped to the
// parent, is what is subtracted, so self time is never negative and
// overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredBy(spans, children[i], s.Start, s.End)
	}
	return self
}

// coveredBy is the length of [lo, hi) covered by the union of the given
// spans' intervals.
func coveredBy(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	var covered int64
	cursor := lo
	for _, id := range ids {
		start, end := max(spans[id].Start, cursor), min(spans[id].End, hi)
		if end > start {
			covered += end - start
			cursor = end
		}
	}
	return covered
}

// spanTotals is the aggregate of one span name.
type spanTotals struct {
	Count  int
	BusyNs int64     // Σ duration
	SelfNs int64     // Σ self time
	Value  float64   // Σ value
	Durs   []float64 // per-span durations, ns
}

// totalsByName aggregates the spans that lie inside [lo, hi] — the timed
// region; set-up and probe spans outside it are left out.
func totalsByName(spans []span, lo, hi int64) map[string]*spanTotals {
	self := selfTimes(spans)
	out := map[string]*spanTotals{}
	for i, s := range spans {
		if s.Start < lo || s.End > hi {
			continue
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.BusyNs += s.dur()
		t.SelfNs += self[i]
		t.Value += s.Value
		t.Durs = append(t.Durs, float64(s.dur()))
	}
	return out
}

// topLevelCover is the share of [lo, hi) that top-level spans cover.
func topLevelCover(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	var tops []int
	for i, s := range spans {
		if s.Parent < 0 {
			tops = append(tops, i)
		}
	}
	return float64(coveredBy(spans, tops, lo, hi)) / float64(hi-lo)
}
