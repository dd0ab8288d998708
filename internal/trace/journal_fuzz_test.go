package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRecordDecoder feeds arbitrary bytes to the journal reader that
// flightctl and /debug/audit stand on. Whatever the input, the decoder
// never panics, and every record it yields meets its documented
// validation: a positive seq, a non-empty kind and a finite, non-negative
// t_sec. Decoding stops at the first error, as callers do.
func FuzzRecordDecoder(f *testing.F) {
	tr := New(0)
	fl := NewFlightRecorder(64)
	tr.AttachFlight(fl)
	tr.SetCorr(3)
	tr.Emit(Record{Kind: KindDecision, TimeSec: 60, Job: "wc-01",
		Attrs: map[string]any{"action": "algorithm1", "rate_rps": 1500.0, "par": "(3, 4, 12, 10)"}})
	tr.Emit(Record{Kind: KindBOIteration, TimeSec: 61, Job: "wc-01",
		Attrs: map[string]any{"iter": 1, "posterior_mean": 0.9, "eligible": true}})
	tr.Emit(Record{Kind: KindChaosMachine, TimeSec: 1200, Job: "wc-02", Corr: 99,
		Attrs: map[string]any{"machine": "m1", "down": true}})
	var journal bytes.Buffer
	if err := fl.WriteJSONL(&journal, 0); err != nil {
		f.Fatal(err)
	}
	real := journal.String()

	f.Add([]byte(real))
	f.Add([]byte(`{"seq":1,"t_sec":1,"kind":"decision","attrs":{"pad":"` +
		strings.Repeat("x", maxJournalLineBytes) + `"}}` + "\n"))
	f.Add([]byte(`{"seq":1,"t_sec":NaN,"kind":"decision"}` + "\n"))
	f.Add([]byte(`{"seq":0,"t_sec":1,"kind":"decision"}` + "\n"))
	f.Add([]byte(`{"seq":1,"t_sec":1,"kind":"mape.step"}` + "\n"))
	f.Add([]byte(real[:len(real)-len(real)/4]))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := NewRecordDecoder(bytes.NewReader(raw))
		for {
			rec, err := dec.Next()
			if err != nil {
				return
			}
			if rec.Seq == 0 || rec.Kind == "" || rec.TimeSec < 0 ||
				math.IsNaN(rec.TimeSec) || math.IsInf(rec.TimeSec, 0) {
				t.Fatalf("line %d: decoder yielded an invalid record %+v", dec.Line(), rec)
			}
		}
	})
}
