package trace

// The journal vocabulary and its decoder. Flight journals are written
// as JSONL (one Record per line, oldest first) by WriteJSONL and read
// back by RecordDecoder — the contract internal/audit and cmd/flightctl
// build their offline analytics on. The kind names are a small, stable,
// exported enum so producers (controller, engine, fleet) and consumers
// (audit, flightctl) share one spelling.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// RecordKind names the event class of a flight Record. The vocabulary
// is closed: every producer in the tree emits one of the constants
// below, and RecordKind.Known lets a decoder flag records written by a
// newer (or corrupted) journal.
type RecordKind string

// The journal vocabulary.
const (
	// KindDecision is one controller decision (action, rate, chosen par).
	KindDecision RecordKind = "decision"
	// KindBOIteration is one Bayesian-optimization iteration inside a
	// decision's planning session.
	KindBOIteration RecordKind = "bo.iteration"
	// KindRescaleAttempt is one failed rescale attempt on the retry path.
	KindRescaleAttempt RecordKind = "rescale.attempt"
	// KindRescale is a committed reconfiguration.
	KindRescale RecordKind = "rescale"
	// KindChaosMachine is an injected machine kill or recovery.
	KindChaosMachine RecordKind = "chaos.machine"
	// KindQuarantine is a job quarantined at the fleet round barrier.
	KindQuarantine RecordKind = "fleet.quarantine"
	// KindSLOState is a burn-rate state transition of a job's SLO
	// tracker (healthy ⇄ degraded ⇄ burning).
	KindSLOState RecordKind = "slo.state"
)

// Known reports whether k belongs to the journal vocabulary.
func (k RecordKind) Known() bool {
	switch k {
	case KindDecision, KindBOIteration, KindRescaleAttempt, KindRescale,
		KindChaosMachine, KindQuarantine, KindSLOState:
		return true
	}
	return false
}

// maxJournalLineBytes bounds one journal line; a record is a handful of
// short attrs, so 4 MiB means "corrupt input", not "big record".
const maxJournalLineBytes = 4 * 1024 * 1024

// RecordDecoder streams Records out of a JSONL journal, validating the
// schema line by line: well-formed JSON, a positive seq, a non-empty
// kind, and a finite non-negative timestamp. Blank lines are skipped so
// hand-edited fixtures stay readable. Higher-level invariants (seq
// monotonicity, gap accounting, kind vocabulary) belong to the caller —
// internal/audit layers them on top.
type RecordDecoder struct {
	sc   *bufio.Scanner
	line int
}

// NewRecordDecoder wraps r (typically a journal file or an HTTP body).
func NewRecordDecoder(r io.Reader) *RecordDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLineBytes)
	return &RecordDecoder{sc: sc}
}

// Line returns the 1-based line number of the last record returned —
// for error reporting by callers layering their own validation.
func (d *RecordDecoder) Line() int { return d.line }

// Next returns the next record, io.EOF at end of input, or a decoding
// error naming the offending line.
func (d *RecordDecoder) Next() (Record, error) {
	for d.sc.Scan() {
		d.line++
		raw := bytes.TrimSpace(d.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return Record{}, fmt.Errorf("trace: journal line %d: %w", d.line, err)
		}
		if rec.Seq == 0 {
			return Record{}, fmt.Errorf("trace: journal line %d: missing seq", d.line)
		}
		if rec.Kind == "" {
			return Record{}, fmt.Errorf("trace: journal line %d: missing kind", d.line)
		}
		if rec.TimeSec < 0 || math.IsNaN(rec.TimeSec) || math.IsInf(rec.TimeSec, 0) {
			return Record{}, fmt.Errorf("trace: journal line %d: bad t_sec %v", d.line, rec.TimeSec)
		}
		return rec, nil
	}
	if err := d.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("trace: journal line %d: %w", d.line+1, err)
	}
	return Record{}, io.EOF
}
