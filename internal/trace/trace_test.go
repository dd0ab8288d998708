package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

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
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Errorf("after Reset: len=%d dropped=%d", tr.Len(), tr.Dropped())
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
	tr.Reset()
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
