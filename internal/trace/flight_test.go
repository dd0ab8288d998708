package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestFlightDisabledIsNoOp(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Emit(Record{Kind: "decision"}) // must not panic
	nilTracer.AttachFlight(NewFlightRecorder(4))
	if nilTracer.FlightEnabled() {
		t.Fatal("nil tracer cannot have a recorder")
	}

	// Enabled tracer without a recorder: Emit is dropped silently.
	tr := New(8)
	tr.Emit(Record{Kind: "decision"})
	if tr.FlightEnabled() {
		t.Fatal("no recorder attached, FlightEnabled should be false")
	}

	var rec *FlightRecorder
	if rec.Len() != 0 || rec.Dropped() != 0 || rec.Snapshot(0) != nil {
		t.Fatal("nil recorder should be empty")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFlightEmitAndSeqOrder(t *testing.T) {
	tr := New(8)
	fl := NewFlightRecorder(16)
	tr.AttachFlight(fl)
	for i := 0; i < 5; i++ {
		tr.Emit(Record{Kind: "decision", TimeSec: float64(i), Job: "a"})
	}
	recs := fl.Snapshot(0)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (gap-free, 1-based)", i, r.Seq, i+1)
		}
	}
}

// The documented cap: the ring retains the most recent capacity
// records and evicts the oldest in order.
func TestFlightEvictionOrder(t *testing.T) {
	fl := NewFlightRecorder(4)
	tr := New(8)
	tr.AttachFlight(fl)
	for i := 1; i <= 10; i++ {
		tr.Emit(Record{Kind: "decision", TimeSec: float64(i)})
	}
	if fl.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", fl.Dropped())
	}
	recs := fl.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d, want 4", len(recs))
	}
	// Oldest-first, and only the newest 4 survive: seqs 7,8,9,10.
	for i, r := range recs {
		if want := uint64(7 + i); r.Seq != want {
			t.Fatalf("position %d holds seq %d, want %d (old entries must evict in order)",
				i, r.Seq, want)
		}
	}
	if got := fl.Snapshot(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Snapshot(2) = %+v, want the 2 newest", got)
	}
}

// Buffered conduits accumulate records locally and commit them on
// Flush as one contiguous batch — the round-barrier path.
func TestFlightBufferedFlush(t *testing.T) {
	root := New(8)
	fl := NewFlightRecorder(32)
	root.AttachFlight(fl)

	a, b := root.Buffered(), root.Buffered()
	a.SetCorr(100)
	b.SetCorr(200)
	a.Emit(Record{Kind: "decision", Job: "a"})
	b.Emit(Record{Kind: "decision", Job: "b"})
	a.Emit(Record{Kind: "bo.iteration", Job: "a"})
	if fl.Len() != 0 {
		t.Fatalf("records reached the journal before Flush: %d", fl.Len())
	}
	// Barrier order: a then b. a's records are contiguous.
	a.Flush()
	b.Flush()
	recs := fl.Snapshot(0)
	want := []struct {
		job  string
		kind RecordKind
		corr uint64
	}{
		{"a", "decision", 100},
		{"a", "bo.iteration", 100},
		{"b", "decision", 200},
	}
	if len(recs) != len(want) {
		t.Fatalf("journal has %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i].Job != w.job || recs[i].Kind != w.kind || recs[i].Corr != w.corr {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}
	// Second flush is a no-op: the pending buffer was drained.
	a.Flush()
	if fl.Len() != 3 {
		t.Fatalf("re-flush duplicated records: %d", fl.Len())
	}
}

// An explicit Corr on the record wins over the conduit's current one.
func TestFlightExplicitCorrWins(t *testing.T) {
	root := New(8)
	root.AttachFlight(NewFlightRecorder(8))
	root.SetCorr(7)
	root.Emit(Record{Kind: "decision"})
	root.Emit(Record{Kind: "chaos.machine", Corr: 99})
	recs := root.Flight().Snapshot(0)
	if recs[0].Corr != 7 || recs[1].Corr != 99 {
		t.Fatalf("corr stamping wrong: %+v", recs)
	}
}

func TestFlightWriteJSONL(t *testing.T) {
	root := New(8)
	fl := NewFlightRecorder(8)
	root.AttachFlight(fl)
	root.SetCorr(3)
	root.Emit(Record{Kind: "decision", TimeSec: 60, Job: "wc-01",
		Attrs: map[string]any{"action": "algorithm1", "rate_rps": 1500.0}})
	root.Emit(Record{Kind: "rescale.attempt", TimeSec: 61, Job: "wc-01",
		Attrs: map[string]any{"attempt": 1, "ok": false}})

	var buf bytes.Buffer
	if err := fl.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", len(lines), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "decision" || lines[0]["corr"] != 3.0 {
		t.Fatalf("line 0 = %v", lines[0])
	}
	attrs := lines[0]["attrs"].(map[string]any)
	if attrs["action"] != "algorithm1" {
		t.Fatalf("line 0 attrs = %v", attrs)
	}
	if lines[1]["kind"] != "rescale.attempt" {
		t.Fatalf("line 1 = %v", lines[1])
	}
}

// The shared cap contract: defaultFlightCapacity derives from the same
// DefaultHistoryCap that bounds controller decision history.
func TestSharedHistoryCap(t *testing.T) {
	if defaultFlightCapacity != 32*DefaultHistoryCap {
		t.Fatalf("defaultFlightCapacity %d != 32 × DefaultHistoryCap %d",
			defaultFlightCapacity, DefaultHistoryCap)
	}
	fl := NewFlightRecorder(0)
	for i := 0; i < defaultFlightCapacity+10; i++ {
		fl.append([]Record{{Kind: "decision"}})
	}
	if fl.Len() != defaultFlightCapacity {
		t.Fatalf("default ring retains %d, want %d", fl.Len(), defaultFlightCapacity)
	}
}

// Concurrent conduits flushing alongside direct emission must be safe
// (run under -race via make race).
func TestFlightConcurrentConduits(t *testing.T) {
	root := New(8)
	fl := NewFlightRecorder(1024)
	root.AttachFlight(fl)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			c := root.Buffered()
			for i := 0; i < 100; i++ {
				c.SetCorr(uint64(w*1000 + i))
				c.Emit(Record{Kind: "decision", Job: fmt.Sprintf("j%d", w)})
				if i%10 == 9 {
					c.Flush()
				}
			}
			c.Flush()
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if fl.Len() != 400 {
		t.Fatalf("journal has %d records, want 400", fl.Len())
	}
	recs := fl.Snapshot(0)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: %d", i, r.Seq)
		}
	}
}
