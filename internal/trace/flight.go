package trace

// The flight recorder: a bounded structured event journal for the
// control plane's durable decision history. Where spans answer "what
// did this operation do and how long did it take", flight records
// answer "what happened to this job, in order, and which decision
// caused it": each record carries a correlation ID that links a
// decision (the MAPE step) to the BO iterations it ran, the rescale
// attempts those triggered, and the chaos injections that interfered.
//
// Records ride the same buffered-conduit machinery as spans: a fleet
// job's conduit accumulates records locally while a worker steps the
// job, and Flush commits them to the root recorder in one batch at the
// round barrier — submission order, so the journal is deterministic
// for a seeded run regardless of worker count. (Record Seq numbers are
// assigned at commit, making the journal a totally ordered log.)
//
// The journal is JSONL-encodable: `metricsd /debug/flight` and
// `autrascale -flight out.jsonl` dump it one record per line, newest
// last — the "decision history as a durable asset" shape that
// "Learning from the Past" argues for.

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultHistoryCap is the shared bound on retained decision history:
// each core.Controller keeps this many DecisionReports, and it is the
// sizing unit for the flight recorder (defaultFlightCapacity records
// across the whole process). Both evict oldest-first when full.
const DefaultHistoryCap = 128

// defaultFlightCapacity is the default flight-recorder ring size:
// 32 history units, enough for ~10 fleet jobs' full decision journals
// or one job's multi-day run.
const defaultFlightCapacity = 32 * DefaultHistoryCap

// Record is one flight-recorder event. Kind names form the small
// stable vocabulary enumerated in journal.go (KindDecision,
// KindBOIteration, KindRescaleAttempt, KindRescale, KindChaosMachine,
// KindQuarantine, KindSLOState).
//
// Corr groups records of one causal chain: every record emitted while a
// controller step is in flight carries that step's correlation ID.
type Record struct {
	// Seq is the journal position, assigned at commit (1-based,
	// monotonically increasing, gap-free).
	Seq uint64 `json:"seq"`
	// Corr links the record to the decision that caused it (0 when the
	// record is not part of a decision chain).
	Corr uint64 `json:"corr,omitempty"`
	// TimeSec is simulated time.
	TimeSec float64    `json:"t_sec"`
	Kind    RecordKind `json:"kind"`
	Job     string     `json:"job,omitempty"`
	// Attrs carry kind-specific payload; map keys marshal sorted, so
	// the JSONL encoding of a seeded run is reproducible.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// FlightRecorder is a bounded ring of Records. Safe for concurrent use.
// The nil *FlightRecorder is the disabled recorder: every method is a
// no-op.
type FlightRecorder struct {
	mu       sync.Mutex
	seq      uint64
	buf      []Record // ring storage, grown as records arrive; len == capacity once full
	capacity int
	next     int
	full     bool
	dropped  uint64
}

// NewFlightRecorder returns a recorder retaining the most recent
// capacity records (defaultFlightCapacity when capacity <= 0). The ring
// grows as records arrive, so a generous capacity costs nothing until
// it is used.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{capacity: capacity}
}

// append commits records in order, assigning their Seq numbers.
func (r *FlightRecorder) append(recs []Record) {
	if r == nil || len(recs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		r.seq++
		rec.Seq = r.seq
		if !r.full {
			r.buf = append(r.buf, rec)
			if len(r.buf) == r.capacity {
				r.full = true
			}
			continue
		}
		r.buf[r.next] = rec
		r.next = (r.next + 1) % len(r.buf)
		r.dropped++
	}
}

// Snapshot returns the retained records oldest-first. limit > 0 keeps
// only the most recent limit records.
func (r *FlightRecorder) Snapshot(limit int) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Record, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	r.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Len returns the number of retained records.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many records the ring has evicted.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// flightWriteChunk bounds how many records WriteJSONL materializes at a
// time — a full dump of a large ring streams in bounded memory instead
// of snapshotting the whole journal per request.
const flightWriteChunk = 256

// copyFrom copies into dst the oldest retained records whose Seq >= seq
// (in seq order) and returns how many were copied. Records evicted
// since the caller computed seq are skipped, never duplicated.
func (r *FlightRecorder) copyFrom(seq uint64, dst []Record) int {
	if r == nil || len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if n == 0 || seq > r.seq {
		return 0
	}
	oldest := r.seq - uint64(n) + 1
	if seq < oldest {
		seq = oldest
	}
	off := int(seq - oldest)
	count := n - off
	if count > len(dst) {
		count = len(dst)
	}
	for i := 0; i < count; i++ {
		li := off + i
		if r.full {
			dst[i] = r.buf[(r.next+li)%n]
		} else {
			dst[i] = r.buf[li]
		}
	}
	return count
}

// WriteJSONL dumps the retained records (oldest-first, most recent
// limit when limit > 0) one JSON object per line. The journal streams
// in flightWriteChunk-record chunks, so a dump never materializes the
// full ring; records committed after the call started are not
// included, and records evicted mid-dump are skipped by seq.
func (r *FlightRecorder) WriteJSONL(w io.Writer, limit int) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	end := r.seq
	retained := uint64(len(r.buf))
	r.mu.Unlock()
	if retained == 0 {
		return nil
	}
	start := end - retained + 1
	if limit > 0 && uint64(limit) < retained {
		start = end - uint64(limit) + 1
	}
	enc := json.NewEncoder(w) // Encode appends '\n' — exactly JSONL
	chunk := make([]Record, flightWriteChunk)
	for cursor := start; cursor <= end; {
		n := r.copyFrom(cursor, chunk)
		if n == 0 {
			return nil
		}
		for i := 0; i < n; i++ {
			rec := chunk[i]
			if rec.Seq > end {
				return nil
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
			cursor = rec.Seq + 1
		}
	}
	return nil
}

// ---- Tracer integration ----

// AttachFlight hooks a flight recorder onto the tracer: Emit calls on
// the tracer and every conduit derived from it afterwards journal into
// rec. No-op on the nil tracer; attaching to a conduit attaches to its
// root.
func (t *Tracer) AttachFlight(rec *FlightRecorder) {
	if t == nil {
		return
	}
	if t.root != nil {
		t.root.AttachFlight(rec)
		return
	}
	t.mu.Lock()
	t.flight = rec
	t.mu.Unlock()
}

// Flight returns the attached recorder (nil when none).
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	if t.root != nil {
		return t.root.Flight()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flight
}

// FlightEnabled reports whether Emit would journal anywhere. Callers
// should guard record construction (the Attrs map allocates) with it,
// the same discipline Enabled() sets for span attributes.
func (t *Tracer) FlightEnabled() bool { return t.Flight() != nil }

// SetCorr sets the correlation ID stamped onto subsequently emitted
// records of this tracer (conduits carry their own corr: a fleet job's
// records correlate to that job's in-flight decision). The conduit is
// owned by one goroutine while a job steps, so no lock is needed
// beyond Emit's.
func (t *Tracer) SetCorr(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.corr = id
	t.mu.Unlock()
}

// Corr returns the correlation ID currently stamped onto emitted
// records (0 on the nil tracer or outside any decision).
func (t *Tracer) Corr() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corr
}

// NewCorr allocates a fresh nonzero correlation ID from the root span
// sequence without changing the tracer's current one. Emitters use it
// for events that happen outside any decision (a chaos injection firing
// between steps) but must still form a non-zero causal-chain key of
// their own instead of polluting corr 0.
func (t *Tracer) NewCorr() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID()
}

// Emit journals a flight record: on a buffered conduit it accumulates
// locally until Flush; on a root tracer it commits immediately. The
// record's Corr defaults to the tracer's current correlation ID.
// No-op (zero allocations) when no recorder is attached.
func (t *Tracer) Emit(rec Record) {
	if t == nil {
		return
	}
	fl := t.Flight()
	if fl == nil {
		return
	}
	t.mu.Lock()
	if rec.Corr == 0 {
		rec.Corr = t.corr
	}
	if t.root != nil {
		t.pendingRecs = append(t.pendingRecs, rec)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	fl.append([]Record{rec})
}
