package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestKnownKinds(t *testing.T) {
	for _, k := range []RecordKind{
		KindDecision, KindBOIteration, KindRescaleAttempt, KindRescale,
		KindChaosMachine, KindQuarantine, KindSLOState,
	} {
		if !k.Known() {
			t.Fatalf("journal kind %q not Known()", k)
		}
	}
	for _, k := range []RecordKind{"", "decisions", "mape.step", "chaos"} {
		if k.Known() {
			t.Fatalf("kind %q should not be Known()", k)
		}
	}
}

// Every record written by WriteJSONL must decode back bit-equal through
// RecordDecoder — the round trip internal/audit depends on.
func TestRecordDecoderRoundTrip(t *testing.T) {
	root := New(8)
	fl := NewFlightRecorder(64)
	root.AttachFlight(fl)
	root.SetCorr(11)
	root.Emit(Record{Kind: KindDecision, TimeSec: 60, Job: "wc-01",
		Attrs: map[string]any{"action": "algorithm1", "rate_rps": 1500.0}})
	root.Emit(Record{Kind: KindRescaleAttempt, TimeSec: 61, Job: "wc-01",
		Attrs: map[string]any{"attempt": 1.0, "ok": false}})
	root.Emit(Record{Kind: KindChaosMachine, TimeSec: 1200, Job: "wc-01", Corr: 99,
		Attrs: map[string]any{"machine": "m1", "down": true}})

	var buf bytes.Buffer
	if err := fl.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	dec := NewRecordDecoder(&buf)
	var got []Record
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	want := fl.Snapshot(0)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Corr != want[i].Corr ||
			got[i].Kind != want[i].Kind || got[i].Job != want[i].Job ||
			got[i].TimeSec != want[i].TimeSec {
			t.Fatalf("record %d decoded as %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Attrs["attempt"] != 1.0 || got[1].Attrs["ok"] != false {
		t.Fatalf("attrs did not round-trip: %v", got[1].Attrs)
	}
	if dec.Line() != 3 {
		t.Fatalf("decoder line = %d, want 3", dec.Line())
	}
}

func TestRecordDecoderRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"bad json", "{not json\n"},
		{"missing seq", `{"t_sec":1,"kind":"decision"}` + "\n"},
		{"missing kind", `{"seq":1,"t_sec":1}` + "\n"},
		{"negative time", `{"seq":1,"t_sec":-5,"kind":"decision"}` + "\n"},
		{"nan time", `{"seq":1,"t_sec":"x","kind":"decision"}` + "\n"},
	}
	for _, tc := range cases {
		dec := NewRecordDecoder(strings.NewReader(tc.input))
		if _, err := dec.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: decoder accepted %q", tc.name, tc.input)
		}
	}
	// Blank lines are skipped, not errors.
	dec := NewRecordDecoder(strings.NewReader("\n\n" + `{"seq":4,"t_sec":0,"kind":"decision"}` + "\n"))
	rec, err := dec.Next()
	if err != nil || rec.Seq != 4 {
		t.Fatalf("blank-line skip failed: %+v, %v", rec, err)
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after last record, got %v", err)
	}
}

// The chunked WriteJSONL must emit every retained record in seq order
// even when the journal spans many chunks and the ring has wrapped.
func TestWriteJSONLChunked(t *testing.T) {
	const capacity = 700 // > 2 chunks
	fl := NewFlightRecorder(capacity)
	tr := New(8)
	tr.AttachFlight(fl)
	for i := 0; i < capacity+300; i++ { // wrap the ring
		tr.Emit(Record{Kind: KindDecision, TimeSec: float64(i)})
	}
	var buf bytes.Buffer
	if err := fl.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	dec := NewRecordDecoder(&buf)
	var seqs []uint64
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, rec.Seq)
	}
	if len(seqs) != capacity {
		t.Fatalf("dumped %d records, want %d", len(seqs), capacity)
	}
	for i, s := range seqs {
		if want := uint64(301 + i); s != want {
			t.Fatalf("position %d has seq %d, want %d", i, s, want)
		}
	}

	// limit keeps the newest K across chunk boundaries.
	buf.Reset()
	if err := fl.WriteJSONL(&buf, 400); err != nil {
		t.Fatal(err)
	}
	dec = NewRecordDecoder(&buf)
	first, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(capacity + 300 - 400 + 1); first.Seq != want {
		t.Fatalf("limited dump starts at seq %d, want %d", first.Seq, want)
	}
}

func TestNewCorr(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.NewCorr() != 0 || nilTracer.Corr() != 0 {
		t.Fatal("nil tracer must return corr 0")
	}
	root := New(8)
	root.SetCorr(5)
	a, b := root.NewCorr(), root.NewCorr()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("NewCorr must mint fresh nonzero ids: %d, %d", a, b)
	}
	if root.Corr() != 5 {
		t.Fatalf("NewCorr changed the current corr: %d", root.Corr())
	}
	// Conduits mint from the root sequence: no collisions across conduits.
	c := root.Buffered()
	if id := c.NewCorr(); id == 0 || id == a || id == b {
		t.Fatalf("conduit NewCorr collided: %d", id)
	}
}
