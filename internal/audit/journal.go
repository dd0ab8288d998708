// Package audit is the offline analytics layer over flight journals:
// it reads the JSONL journals the flight recorder writes (internal/
// trace), validates their schema and seq invariants, reconstructs each
// decision's causal chain (decision → BO iterations → rescale attempts
// → chaos events, keyed on the correlation id), diffs two runs down to
// the first divergent record, and aggregates SLO burn-state transitions
// into a ranked per-job report.
//
// The package closes the loop "Learning from the Past" argues for:
// a journal is only an asset if something can read it back and explain
// it. cmd/flightctl is the CLI face of this package; metricsd's
// /debug/audit endpoint runs the same attribution against the live
// ring.
package audit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"autrascale/internal/trace"
)

// Gap is a seq discontinuity inside a journal — records the ring
// evicted between dump start and the writer catching up, or a journal
// truncated by hand.
type Gap struct {
	AfterSeq uint64 `json:"after_seq"`
	NextSeq  uint64 `json:"next_seq"`
	Missing  uint64 `json:"missing"`
}

// Journal is a decoded, validated flight journal. Records are in
// journal order (strictly increasing seq); gaps are tolerated and
// accounted, regressions are not.
type Journal struct {
	Records  []trace.Record
	FirstSeq uint64
	LastSeq  uint64
	Gaps     []Gap
	// KindCounts tallies every kind seen; UnknownKinds the subset outside
	// the trace vocabulary (a newer writer, or corruption).
	KindCounts   map[trace.RecordKind]int
	UnknownKinds map[trace.RecordKind]int
}

func newJournal() *Journal {
	return &Journal{
		KindCounts:   map[trace.RecordKind]int{},
		UnknownKinds: map[trace.RecordKind]int{},
	}
}

// add validates rec against the running seq invariant and retains it.
func (j *Journal) add(rec trace.Record) error {
	if j.LastSeq != 0 && rec.Seq <= j.LastSeq {
		return fmt.Errorf("audit: seq %d after %d — journal is not strictly increasing",
			rec.Seq, j.LastSeq)
	}
	if j.LastSeq == 0 {
		j.FirstSeq = rec.Seq
	} else if rec.Seq != j.LastSeq+1 {
		j.Gaps = append(j.Gaps, Gap{
			AfterSeq: j.LastSeq,
			NextSeq:  rec.Seq,
			Missing:  rec.Seq - j.LastSeq - 1,
		})
	}
	j.LastSeq = rec.Seq
	j.KindCounts[rec.Kind]++
	if !rec.Kind.Known() {
		j.UnknownKinds[rec.Kind]++
	}
	j.Records = append(j.Records, rec)
	return nil
}

// ReadJournal streams a JSONL journal out of r, validating each line's
// schema (via trace.RecordDecoder) and the cross-record seq invariant.
// Gaps are tolerated (the ring evicts); a seq regression or duplicate
// is an error, because it means the input is not one journal.
func ReadJournal(r io.Reader) (*Journal, error) {
	j := newJournal()
	dec := trace.NewRecordDecoder(r)
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return j, nil
		}
		if err != nil {
			return nil, err
		}
		if err := j.add(rec); err != nil {
			return nil, fmt.Errorf("%w (line %d)", err, dec.Line())
		}
	}
}

// FromRecords builds a Journal from an in-memory record slice — the
// live-ring path (metricsd /debug/audit attributes a
// FlightRecorder.Snapshot without a serialization round trip). The same
// validation applies.
func FromRecords(recs []trace.Record) (*Journal, error) {
	j := newJournal()
	for i, rec := range recs {
		if rec.Seq == 0 {
			return nil, fmt.Errorf("audit: record %d has no seq (not committed?)", i)
		}
		if err := j.add(rec); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// MissingRecords sums the seq holes across all gaps.
func (j *Journal) MissingRecords() uint64 {
	var n uint64
	for _, g := range j.Gaps {
		n += g.Missing
	}
	return n
}

// Jobs returns the sorted distinct job names appearing in the journal.
func (j *Journal) Jobs() []string {
	seen := map[string]bool{}
	for _, rec := range j.Records {
		if rec.Job != "" && !seen[rec.Job] {
			seen[rec.Job] = true
		}
	}
	jobs := make([]string, 0, len(seen))
	for name := range seen {
		jobs = append(jobs, name)
	}
	sort.Strings(jobs)
	return jobs
}

// TimeRange returns the minimum and maximum simulated time covered.
// Record times are not globally monotone (the fleet barrier commits
// job-grouped batches), so both ends need a scan.
func (j *Journal) TimeRange() (startSec, endSec float64) {
	if len(j.Records) == 0 {
		return 0, 0
	}
	startSec, endSec = math.Inf(1), math.Inf(-1)
	for _, rec := range j.Records {
		startSec = math.Min(startSec, rec.TimeSec)
		endSec = math.Max(endSec, rec.TimeSec)
	}
	return startSec, endSec
}

// Summary is the journal's shape at a glance — what flightctl summary
// prints and /debug/audit returns alongside attributions.
type Summary struct {
	Records        int                      `json:"records"`
	FirstSeq       uint64                   `json:"first_seq"`
	LastSeq        uint64                   `json:"last_seq"`
	Gaps           int                      `json:"gaps"`
	MissingRecords uint64                   `json:"missing_records"`
	StartSec       float64                  `json:"start_sec"`
	EndSec         float64                  `json:"end_sec"`
	Jobs           []string                 `json:"jobs"`
	KindCounts     map[trace.RecordKind]int `json:"kind_counts"`
	UnknownKinds   map[trace.RecordKind]int `json:"unknown_kinds,omitempty"`
	Chains         int                      `json:"chains"`
	Decisions      int                      `json:"decisions"`
	OrphanChains   int                      `json:"orphan_chains"`
}

// Summarize computes the journal's Summary.
func (j *Journal) Summarize() Summary {
	start, end := j.TimeRange()
	s := Summary{
		Records:        len(j.Records),
		FirstSeq:       j.FirstSeq,
		LastSeq:        j.LastSeq,
		Gaps:           len(j.Gaps),
		MissingRecords: j.MissingRecords(),
		StartSec:       start,
		EndSec:         end,
		Jobs:           j.Jobs(),
		KindCounts:     j.KindCounts,
	}
	if len(j.UnknownKinds) > 0 {
		s.UnknownKinds = j.UnknownKinds
	}
	for _, c := range j.Chains() {
		s.Chains++
		if c.Decision == nil {
			s.OrphanChains++
		} else {
			s.Decisions++
		}
	}
	return s
}

// Render formats the summary for terminals.
func (s Summary) Render() string {
	out := fmt.Sprintf("journal: %d records (seq %d..%d), t=%.0fs..%.0fs\n",
		s.Records, s.FirstSeq, s.LastSeq, s.StartSec, s.EndSec)
	if s.Gaps > 0 {
		out += fmt.Sprintf("  gaps: %d (%d records evicted or missing)\n", s.Gaps, s.MissingRecords)
	}
	out += fmt.Sprintf("  jobs: %d (%s)\n", len(s.Jobs), joinMax(s.Jobs, 8))
	out += fmt.Sprintf("  chains: %d (%d with a decision, %d orphaned)\n",
		s.Chains, s.Decisions, s.OrphanChains)
	kinds := make([]string, 0, len(s.KindCounts))
	for k := range s.KindCounts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		out += fmt.Sprintf("  %-18s %d\n", k, s.KindCounts[trace.RecordKind(k)])
	}
	for k, n := range s.UnknownKinds {
		out += fmt.Sprintf("  UNKNOWN kind %q: %d record(s)\n", k, n)
	}
	return out
}

// joinMax joins up to max names, eliding the rest.
func joinMax(names []string, max int) string {
	if len(names) <= max {
		out := ""
		for i, n := range names {
			if i > 0 {
				out += ", "
			}
			out += n
		}
		return out
	}
	return joinMax(names[:max], max) + fmt.Sprintf(", … %d more", len(names)-max)
}

// ---- attr coercion helpers ----
//
// Journals read from disk carry JSON-decoded attrs (numbers are
// float64); journals built FromRecords carry the emitters' native types
// (int, bool, float64, string). Attribution must read both.

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

func attrFloat(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

func attrBool(attrs map[string]any, key string) bool {
	if v, ok := attrs[key].(bool); ok {
		return v
	}
	return false
}
