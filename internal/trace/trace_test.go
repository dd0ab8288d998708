package trace

import (
	"encoding/json"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

func TestSpanRecording(t *testing.T) {
	tr := New(16)
	sp := tr.StartSpan("mape.step")
	sp.SetStr("action", "algorithm1").SetFloat("rate_rps", 300000).SetInt("iter", 3).SetBool("met", true)
	child := sp.Child("bo.suggest")
	child.SetFloat("ei", 0.042)
	child.End()
	sp.End()

	spans := tr.Snapshot(0)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completed child first (it ended first), then the parent.
	if spans[0].Name != "bo.suggest" || spans[1].Name != "mape.step" {
		t.Fatalf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != spans[1].ID {
		t.Errorf("child parent id %d, want %d", spans[0].ParentID, spans[1].ID)
	}
	if got := len(spans[1].Attrs); got != 4 {
		t.Fatalf("parent has %d attrs, want 4", got)
	}
	if v, ok := spans[1].Attrs[3].Value().(bool); !ok || !v {
		t.Errorf("bool attr = %v, want true", spans[1].Attrs[3].Value())
	}
	if v, ok := spans[1].Attrs[2].Value().(int64); !ok || v != 3 {
		t.Errorf("int attr = %v, want 3", spans[1].Attrs[2].Value())
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.StartSpan("s").SetInt("i", i).End()
	}
	spans := tr.Snapshot(0)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for j, sp := range spans {
		if got := int(sp.Attrs[0].Num); got != 6+j {
			t.Errorf("span %d has i=%d, want %d (oldest-first order)", j, got, 6+j)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	if got := len(tr.Snapshot(2)); got != 2 {
		t.Errorf("Snapshot(2) returned %d spans", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// Every call on the nil span must be safe.
	sp.SetStr("k", "v").SetFloat("f", 1).SetInt("i", 2).SetBool("b", true)
	sp.Child("child").End()
	sp.End()
	if tr.Len() != 0 || tr.Snapshot(0) != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer retained state")
	}
}

// TestDisabledPathZeroAlloc holds the allocation contract of the
// repo-root BenchmarkTraceOverhead: the disabled tracer must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan("bo.suggest")
		sp.SetInt("pool", 400)
		sp.SetFloat("acq", 0.1)
		c := sp.Child("bo.climb")
		c.SetBool("improved", true)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per op, want 0", allocs)
	}
}

func TestDoubleEnd(t *testing.T) {
	tr := New(8)
	sp := tr.StartSpan("once")
	sp.End()
	sp.End()
	if tr.Len() != 1 {
		t.Fatalf("double End recorded %d spans, want 1", tr.Len())
	}
}

func TestConcurrentEnd(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.StartSpan("worker").SetInt("i", i).End()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("retained %d spans, want 64 (full ring)", tr.Len())
	}
	if tr.Dropped() != 800-64 {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), 800-64)
	}
}

func TestBufferedFlush(t *testing.T) {
	root := New(64)
	conduit := root.Buffered()
	if !conduit.Enabled() {
		t.Fatal("buffered conduit of an enabled tracer must be enabled")
	}

	conduit.StartSpan("held").SetInt("i", 1).End()
	conduit.StartSpan("held").SetInt("i", 2).End()
	if root.Len() != 0 {
		t.Fatalf("spans reached the root before Flush: Len = %d", root.Len())
	}

	root.StartSpan("direct").End()
	conduit.Flush()
	if root.Len() != 3 {
		t.Fatalf("after Flush root holds %d spans, want 3", root.Len())
	}
	// Conduit ids come from the root sequence: all distinct.
	seen := map[uint64]bool{}
	for _, s := range root.Snapshot(0) {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d across conduit and root", s.ID)
		}
		seen[s.ID] = true
	}

	// Flush drains: a second flush adds nothing.
	conduit.Flush()
	if root.Len() != 3 {
		t.Fatalf("idempotent Flush changed Len to %d", root.Len())
	}

	// Buffering a conduit attaches to the same root.
	conduit.Buffered().StartSpan("nested").End()
	// ...but that nested conduit was discarded unflushed: root unchanged.
	if root.Len() != 3 {
		t.Fatalf("unflushed nested conduit leaked spans: Len = %d", root.Len())
	}

	// Nil-safety mirrors the disabled tracer.
	var off *Tracer
	off.Buffered().StartSpan("x").End()
	off.Flush()
}

func TestBufferedConcurrentConduits(t *testing.T) {
	root := New(4096)
	var wg sync.WaitGroup
	conduits := make([]*Tracer, 8)
	for g := range conduits {
		conduits[g] = root.Buffered()
		wg.Add(1)
		go func(c *Tracer) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.StartSpan("job").SetInt("i", i).End()
			}
			c.Flush()
		}(conduits[g])
	}
	wg.Wait()
	if root.Len() != 800 {
		t.Fatalf("root retained %d spans, want 800", root.Len())
	}
}

func TestAttrJSON(t *testing.T) {
	sp := Span{Name: "s", Attrs: []Attr{
		{Key: "action", Kind: KindString, Str: "algorithm2"},
		{Key: "margin", Kind: KindFloat, Num: 0.05},
	}}
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"key":"action"`, `"value":"algorithm2"`, `"key":"margin"`, `"value":0.05`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON %s missing %s", s, want)
		}
	}
	if got := sp.Attrs[0].String(); got != "action=algorithm2" {
		t.Errorf("Attr.String() = %q", got)
	}
}

// sevenAttrSpan records one span with seven attributes, a Suggest-sized
// span such as the ones the fleet's decisions emit.
func sevenAttrSpan(tr *Tracer, i int) {
	tr.StartSpan("mape.step").
		SetStr("action", "algorithm1").
		SetFloat("rate_rps", 300000).
		SetInt("iter", i).
		SetBool("met", i%2 == 0).
		SetFloat("ei", 0.042).
		SetFloat("margin", 0.05).
		SetStr("par", "(3, 4, 11, 9)").
		End()
}

// TestEnabledSpanAllocatesOnce holds an enabled span to one allocation,
// its *ActiveSpan, once the ring's slots (or a conduit's pending slots)
// hold attribute storage of their own. Growing a span's attribute slice
// one append at a time made five for seven attributes.
func TestEnabledSpanAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race: sync.Pool drops items at random")
	}
	// A collection empties the attribute pool, and the refill would be
	// charged to the span that ran next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const capacity = 64

	root := New(capacity)
	for i := 0; i < 2*capacity; i++ {
		sevenAttrSpan(root, i)
	}
	if got := testing.AllocsPerRun(200, func() { sevenAttrSpan(root, 1) }); got > 1 {
		t.Errorf("a span on a warm root makes %.1f allocations, want <= 1", got)
	}

	conduit := New(capacity).Buffered()
	const perFlush = 8
	round := func() {
		for i := 0; i < perFlush; i++ {
			sevenAttrSpan(conduit, i)
		}
		conduit.Flush()
	}
	for i := 0; i < 2*capacity/perFlush; i++ {
		round()
	}
	if got := testing.AllocsPerRun(50, round) / perFlush; got > 1 {
		t.Errorf("a span on a warm conduit, Flush included, makes %.2f allocations, want <= 1", got)
	}
}

// TestSnapshotOwnsItsAttrs takes a snapshot and then overwrites every
// ring slot three times with spans of other attributes and other counts:
// the snapshot must read as it did, so it cannot share storage with the
// ring.
func TestSnapshotOwnsItsAttrs(t *testing.T) {
	const capacity = 8
	tr := New(capacity)
	for i := 0; i < capacity+3; i++ { // wrapped, so Snapshot reads both halves
		tr.StartSpan("before").SetInt("i", i).SetStr("s", "old").End()
	}
	snap, last := tr.Snapshot(0), tr.Snapshot(3)
	want, wantLast := cloneSpans(snap), cloneSpans(last)
	if len(want) != capacity || len(wantLast) != 3 {
		t.Fatalf("snapshot holds %d and %d spans, want %d and 3", len(want), len(wantLast), capacity)
	}
	// Same-sized spans first, which fit the slots' storage, then larger.
	for i := 0; i < 3*capacity; i++ {
		if i < capacity {
			tr.StartSpan("after").SetInt("i", 100+i).SetStr("s", "new").End()
		} else {
			sevenAttrSpan(tr, 100+i)
		}
	}
	if !reflect.DeepEqual(snap, want) || !reflect.DeepEqual(last, wantLast) {
		t.Fatalf("the ring's later spans changed an earlier snapshot:\n%v\nwant\n%v", snap, want)
	}
	for j, sp := range snap {
		if got := int(sp.Attrs[0].Num); got != 3+j {
			t.Errorf("snapshot span %d has i=%d, want %d (oldest-first order)", j, got, 3+j)
		}
	}
	// One span's attributes end where its neighbour's begin: appending to
	// them must not write into the neighbour.
	_ = append(snap[0].Attrs, Attr{Key: "extra"})
	if !reflect.DeepEqual(snap, want) {
		t.Fatal("appending to one snapshot span's attributes changed another span")
	}
}

func cloneSpans(spans []Span) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = s
		out[i].Attrs = append([]Attr(nil), s.Attrs...)
	}
	return out
}

// TestSetAfterEndIsNoOp: an ended span has handed its attribute buffer
// back to the pool, where the next span may take it, so a Set* on the
// ended span must change no recorded span, that next one included.
func TestSetAfterEndIsNoOp(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		root := New(8)
		tr := root
		if buffered {
			tr = root.Buffered()
		}
		a := tr.StartSpan("a").SetInt("i", 1)
		a.End()
		if got := a.SetStr("late", "x").SetFloat("f", 2).SetInt("n", 3).SetBool("b", true); got != a {
			t.Fatal("Set* on an ended span must still return the span for chaining")
		}
		b := tr.StartSpan("b").SetInt("j", 2)
		a.SetStr("later", "y").SetInt("n", 4)
		b.End()
		a.End()
		a.SetBool("after_second_end", true)
		tr.Flush()

		spans := root.Snapshot(0)
		want := []Attr{{Key: "i", Kind: KindInt, Num: 1}, {Key: "j", Kind: KindInt, Num: 2}}
		if len(spans) != 2 {
			t.Fatalf("buffered=%v: recorded %d spans, want 2", buffered, len(spans))
		}
		for k, sp := range spans {
			if !reflect.DeepEqual(sp.Attrs, want[k:k+1]) {
				t.Errorf("buffered=%v: span %s has attrs %v, want %v", buffered, sp.Name, sp.Attrs, want[k:k+1])
			}
		}
	}
}

// TestConcurrentFlushWhileSnapshot flushes conduits into a small,
// wrapping ring while readers snapshot it. Every span carries i and 2i,
// so a snapshot that aliased a slot being overwritten would read a torn
// pair; under -race (make race) it would also report the data race.
func TestConcurrentFlushWhileSnapshot(t *testing.T) {
	root := New(32)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range root.Snapshot(0) {
					if len(sp.Attrs) != 2 || sp.Attrs[1].Num != 2*sp.Attrs[0].Num {
						t.Errorf("snapshot read a torn span: %v", sp.Attrs)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(c *Tracer) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				c.StartSpan("job").SetInt("i", i).SetInt("twice", 2*i).End()
				if i%10 == 9 {
					c.Flush()
				}
			}
		}(root.Buffered())
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if root.Dropped() != 4*300-32 {
		t.Fatalf("dropped = %d, want %d", root.Dropped(), 4*300-32)
	}
}
