// Package trace is the decision-tracing layer of the reproduction: a
// lightweight structured tracer that records *why* the controller did
// what it did — each MAPE phase, each Bayesian-optimization iteration,
// each transfer-learning model selection — as spans with typed
// attributes in a bounded ring buffer.
//
// The paper's contribution is a decision procedure (Eq. 3 iteration,
// Algorithm 1's EI/termination check per Eq. 9, Algorithm 2's
// nearest-rate model reuse); a terse event log cannot explain an over-
// or under-provisioned run. Spans can: the Algorithm 1 span carries the
// sampled configuration, its EI value, the GP posterior, and the Eq. 9
// margin, so `metricsd`'s /debug/trace endpoint (or the -explain flag
// of cmd/autrascale) reconstructs the full reasoning chain.
//
// # Disabled path
//
// A nil *Tracer is the disabled tracer: every method on a nil *Tracer
// or nil *ActiveSpan is a no-op that performs zero allocations, so
// instrumented hot paths (bo.Suggest) cost nothing when tracing is off.
// Callers that must *compute* an attribute value (format a vector,
// re-predict a posterior) guard with Enabled() so the argument itself
// is never built:
//
//	if tr.Enabled() {
//		sp.SetStr("par", p.String())
//	}
//
// TestDisabledPathZeroAlloc locks this in: the disabled-path calls on
// the Suggest loop run at 0 allocs/op. BenchmarkTraceOverhead (repo
// root) times them.
//
// # Enabled path
//
// An enabled span costs one allocation, the *ActiveSpan, whatever its
// attribute count. Its attributes are built in a pooled buffer that End
// hands back; End copies them into storage the ring slot (or a buffered
// conduit's pending slot) owns and keeps across reuse, so a warm ring
// allocates nothing per span. Snapshot therefore returns copies: a
// reader never aliases storage the ring will overwrite. Once a span has
// ended, its Set* calls are no-ops, as is a second End.
// TestEnabledSpanAllocatesOnce holds the one allocation, and the
// BenchmarkFleetTickTraced row of the repo root's allocation contracts
// holds a traced fleet round.
//
// # Concurrency
//
// The tracer's ring buffer is mutex-guarded and safe for concurrent
// End/Snapshot. An *ActiveSpan* is owned by the goroutine that started
// it; concurrent stages must start their own child spans.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind selects which value field of an Attr is meaningful.
type AttrKind uint8

// Attribute kinds.
const (
	KindString AttrKind = iota
	KindFloat
	KindInt
	KindBool
)

// Attr is one typed span attribute.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Num  float64 // value for KindFloat/KindInt; 0/1 for KindBool
}

// Value returns the attribute's dynamic value for rendering.
func (a Attr) Value() any {
	switch a.Kind {
	case KindString:
		return a.Str
	case KindInt:
		return int64(a.Num)
	case KindBool:
		return a.Num != 0
	default:
		return a.Num
	}
}

// MarshalJSON renders the attribute as {"key": ..., "value": ...} so
// /debug/trace output reads naturally.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}{a.Key, a.Value()})
}

// String renders "key=value".
func (a Attr) String() string { return fmt.Sprintf("%s=%v", a.Key, a.Value()) }

// Span is one completed (or in-flight) traced operation.
type Span struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUnixNano / DurationNanos are wall-clock; simulated time, when
	// relevant, rides along as a "t_sec" attribute set by the caller.
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// Tracer collects completed spans into a bounded ring buffer. The nil
// *Tracer is the disabled tracer (see package comment).
//
// A tracer returned by Buffered is a write-only conduit: its spans
// accumulate in a local buffer and reach the root ring only on Flush,
// in one batch under one lock acquisition. Fleet workers give each job
// a buffered tracer so per-span pushes never contend on the shared
// ring; the round barrier flushes them.
type Tracer struct {
	seq atomic.Uint64

	root *Tracer // non-nil on buffered conduits; spans flush to root

	// buf and pending keep each slot's Attrs backing array when the slot
	// is reused: a span's attributes are copied in, never aliased.
	mu      sync.Mutex
	buf     []Span // ring storage, len == capacity once full
	next    int    // write position
	full    bool
	dropped uint64 // spans evicted by the ring

	pending []Span // buffered-conduit accumulation, copied out by Flush

	// Flight-recorder state (flight.go): the root's journal, the
	// conduit's accumulated records, and the correlation ID stamped
	// onto records emitted through this tracer.
	flight      *FlightRecorder
	pendingRecs []Record
	corr        uint64
}

// DefaultCapacity is the ring size New uses for capacity <= 0.
const DefaultCapacity = 2048

// New returns an enabled tracer retaining the most recent capacity
// spans (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Span, 0, capacity)}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Buffered returns a write-only conduit onto t: spans started on it get
// ids from t's sequence but stay in a local buffer until Flush. Reads
// (Snapshot, Len, ...) should go to t, not the conduit. Buffering a
// conduit returns another conduit onto the same root. Nil-safe: the
// disabled tracer buffers to another disabled tracer.
func (t *Tracer) Buffered() *Tracer {
	if t == nil {
		return nil
	}
	root := t
	if t.root != nil {
		root = t.root
	}
	return &Tracer{root: root}
}

// Flush moves the conduit's accumulated spans — and flight records —
// to the root as one batch each. No-op on nil or non-buffered tracers.
func (t *Tracer) Flush() {
	if t == nil || t.root == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.pushBatch(t.pending)
	t.pending = t.pending[:0]
	if len(t.pendingRecs) > 0 {
		t.root.Flight().append(t.pendingRecs)
		t.pendingRecs = t.pendingRecs[:0]
	}
}

// nextID draws a span id, always from the root's sequence so ids stay
// unique across every conduit of one tracer.
func (t *Tracer) nextID() uint64 {
	if t.root != nil {
		return t.root.seq.Add(1)
	}
	return t.seq.Add(1)
}

// push adds a completed span to the ring (or, on a buffered conduit, to
// the local accumulation).
func (t *Tracer) push(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != nil {
		// Grow keeps the slots past len, whose Attrs storage is reused.
		t.pending = slices.Grow(t.pending, 1)[:len(t.pending)+1]
		copySpan(&t.pending[len(t.pending)-1], s)
		return
	}
	t.pushOneLocked(s)
}

// pushBatch commits spans to the ring under a single lock acquisition.
func (t *Tracer) pushBatch(spans []Span) {
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range spans {
		t.pushOneLocked(&spans[i])
	}
}

func (t *Tracer) pushOneLocked(s *Span) {
	if !t.full {
		t.buf = t.buf[:len(t.buf)+1]
		copySpan(&t.buf[len(t.buf)-1], s)
		if len(t.buf) == cap(t.buf) {
			t.full = true
		}
		return
	}
	copySpan(&t.buf[t.next], s)
	t.next = (t.next + 1) % len(t.buf)
	t.dropped++
}

// copySpan overwrites slot with s, copying s's attributes into the
// slot's own backing array.
func copySpan(slot, s *Span) {
	attrs := append(slot.Attrs[:0], s.Attrs...)
	*slot = *s
	slot.Attrs = attrs
}

// Snapshot returns copies of the retained spans oldest-first, their
// attributes included. limit > 0 keeps only the most recent limit spans.
func (t *Tracer) Snapshot(limit int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	// The slices still alias the ring's storage: copy the attributes out
	// into one array, each span's slice capped at its own length.
	nattrs := 0
	for _, s := range out {
		nattrs += len(s.Attrs)
	}
	attrs := make([]Attr, 0, nattrs)
	for i := range out {
		if a := out[i].Attrs; len(a) > 0 {
			attrs = append(attrs, a...)
			out[i].Attrs = attrs[len(attrs)-len(a) : len(attrs) : len(attrs)]
		} else {
			out[i].Attrs = nil
		}
	}
	return out
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ActiveSpan is a span under construction. It is owned by one goroutine
// until End. The nil *ActiveSpan, and an ended one, swallow every call.
type ActiveSpan struct {
	tracer *Tracer
	span   Span
	attrs  *[]Attr // from attrPool at the first Set*, handed back at End
	ended  bool
}

// attrPool recycles the buffers spans build their attributes in: End
// copies them into the ring's storage, so a buffer outlives its span
// only in the pool.
var attrPool = sync.Pool{New: func() any { return new([]Attr) }}

// StartSpan opens a root span. Returns nil (the no-op span) on the
// disabled tracer.
func (t *Tracer) StartSpan(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{
		tracer: t,
		span: Span{
			ID:            t.nextID(),
			Name:          name,
			StartUnixNano: time.Now().UnixNano(),
		},
	}
}

// Child opens a nested span under s (no-op on the nil span).
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	c := s.tracer.StartSpan(name)
	c.span.ParentID = s.span.ID
	return c
}

// ID returns the span id (0 on the nil span).
func (s *ActiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SetStr attaches a string attribute; returns s for chaining.
func (s *ActiveSpan) SetStr(key, v string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.add(Attr{Key: key, Kind: KindString, Str: v})
	return s
}

// SetFloat attaches a float attribute.
func (s *ActiveSpan) SetFloat(key string, v float64) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.add(Attr{Key: key, Kind: KindFloat, Num: v})
	return s
}

// SetInt attaches an integer attribute.
func (s *ActiveSpan) SetInt(key string, v int) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.add(Attr{Key: key, Kind: KindInt, Num: float64(v)})
	return s
}

// SetBool attaches a boolean attribute.
func (s *ActiveSpan) SetBool(key string, v bool) *ActiveSpan {
	if s == nil {
		return nil
	}
	n := 0.0
	if v {
		n = 1
	}
	s.add(Attr{Key: key, Kind: KindBool, Num: n})
	return s
}

// add appends a to the span's pooled buffer; a no-op once it has ended.
func (s *ActiveSpan) add(a Attr) {
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = attrPool.Get().(*[]Attr)
	}
	*s.attrs = append(*s.attrs, a)
}

// End completes the span, copies it into the ring and hands its
// attribute buffer back to the pool. Ending twice is a no-op, as is
// ending the nil span.
func (s *ActiveSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.span.DurationNanos = time.Now().UnixNano() - s.span.StartUnixNano
	if s.attrs != nil {
		s.span.Attrs = *s.attrs
	}
	s.tracer.push(&s.span)
	if s.attrs != nil {
		clear(*s.attrs)
		*s.attrs = (*s.attrs)[:0]
		attrPool.Put(s.attrs)
		s.attrs, s.span.Attrs = nil, nil
	}
}
