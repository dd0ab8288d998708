package persist

import (
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"strconv"

	"autrascale/internal/core"
	"autrascale/internal/slo"
)

// The typed write of a version 2 payload, the mirror of decode.go. Its
// bytes are json.Marshal's for the same state, byte for byte, written
// without a reflection walk or a payload-sized buffer. One function per
// payload type writes
// its fields in declaration order, under their tags, leaving out an
// omitempty field exactly when json.Marshal does (zero, -0 included, or
// an empty slice or nil pointer). Everything is appended to a small
// scratch buffer that goes to the writer, and to the running checksum,
// whenever it fills, so no path holds the payload in memory:
//   - a float is formatted as encoding/json formats it: 'f', or 'e'
//     outside [1e-6, 1e21) with an exponent of one digit unpadded, and
//     NaN or ±Inf is refused with json.Marshal's error;
//   - a string of printable ASCII without '"', '\\', '<', '>' or '&' is
//     its own JSON text; any other is rare and goes to json.Marshal, which
//     escapes it as it always did;
//   - a nil slice without omitempty is null, as json.Marshal writes it.

// flushAt is how full the scratch buffer grows before it is written out.
const flushAt = 8 << 10

// encoder is the writing position in one snapshot.
type encoder struct {
	// w receives the flushed bytes; nil discards them.
	w io.Writer
	// sum, while non-nil, sees every flushed byte too.
	sum hash.Hash
	buf []byte
	err error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, flushAt+512)}
}

// envelope writes a whole snapshot, with checksum as its sha256 field,
// and hashes exactly the payload's bytes into sum when it is not nil.
func (e *encoder) envelope(st *FleetState, checksum []byte, sum hash.Hash) {
	e.buf = header(e.buf)
	e.buf = append(e.buf, checksum...)
	e.raw(`","payload":`)
	e.payload(st, sum)
	e.raw("}\n")
	e.flush()
}

// header appends a snapshot's leading bytes, up to its checksum.
func header(b []byte) []byte {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, formatVersion, 10)
	return append(b, `,"sha256":"`...)
}

// payload writes the payload alone, hashing it into sum when sum is not
// nil.
func (e *encoder) payload(st *FleetState, sum hash.Hash) {
	e.flush()
	e.sum = sum
	e.fleet(st)
	e.flush()
	e.sum = nil
}

// flush writes the scratch buffer out and empties it. After the first
// error it writes nothing more.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		if e.sum != nil {
			e.sum.Write(e.buf)
		}
		if e.w != nil {
			if _, err := e.w.Write(e.buf); err != nil {
				e.err = fmt.Errorf("persist: encode snapshot: %w", err)
			}
		}
	}
	e.buf = e.buf[:0]
}

// spill flushes a full scratch buffer: called between array elements,
// it bounds the buffer by flushAt plus one element's scalars.
func (e *encoder) spill() {
	if len(e.buf) >= flushAt {
		e.flush()
	}
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

// float, int, uint, bool and str write one value as json.Marshal writes
// a field of that type.

func (e *encoder) float(v *float64) {
	f := *v
	abs := math.Abs(f)
	switch {
	case math.IsInf(f, 0) || math.IsNaN(f):
		// Refused as json.Marshal refuses it; the output is discarded.
		if e.err == nil {
			e.err = fmt.Errorf("persist: marshal payload: %w",
				&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		}
	case abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)):
		// An integer below 10^15 < 2^53 is exactly an int64, and its
		// shortest 'f' form is its decimal digits; most of a payload's
		// numbers are such integers. (-0 stays with AppendFloat.)
		e.buf = strconv.AppendInt(e.buf, int64(f), 10)
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		e.buf = strconv.AppendFloat(e.buf, f, 'e', -1, 64)
		// encoding/json writes e-07 as e-7.
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	default:
		e.buf = strconv.AppendFloat(e.buf, f, 'f', -1, 64)
	}
}

func (e *encoder) int(v *int) { e.buf = strconv.AppendInt(e.buf, int64(*v), 10) }

func (e *encoder) uint(v *uint64) { e.buf = strconv.AppendUint(e.buf, *v, 10) }

func (e *encoder) bool(v *bool) { e.buf = strconv.AppendBool(e.buf, *v) }

// verbatim marks the bytes a string may hold and still be its own JSON
// text under json.Marshal: printable ASCII but the quote, the backslash
// and the three characters it escapes for HTML.
var verbatim = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = !(c == '"' || c == '\\' || c == '<' || c == '>' || c == '&')
	}
	return t
}()

func (e *encoder) str(v *string) {
	s := *v
	for i := 0; i < len(s); i++ {
		if !verbatim[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// list writes a slice whose elements elem writes: null when it is nil,
// as json.Marshal writes a slice without omitempty.
func list[T any](e *encoder, s []T, elem func(*encoder, *T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range s {
		if e.err != nil {
			return
		}
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(e, &s[i])
		e.spill()
	}
	e.buf = append(e.buf, ']')
}

// One function per payload type: each field under its exact tag, in
// declaration order. Every type's first field is never omitted, so every
// later key carries its comma.

func (e *encoder) fleet(st *FleetState) {
	e.raw(`{"now_sec":`)
	e.float(&st.NowSec)
	e.raw(`,"rounds":`)
	e.int(&st.Rounds)
	e.raw(`,"total_cores":`)
	e.int(&st.TotalCores)
	e.raw(`,"round_sec":`)
	e.float(&st.RoundSec)
	e.raw(`,"seed":`)
	e.uint(&st.Seed)
	e.raw(`,"chaos_profile":`)
	e.str(&st.Chaos)
	e.raw(`,"jobs":`)
	list(e, st.Jobs, (*encoder).job)
	e.raw(`,"shared_libraries":`)
	list(e, st.Shared, (*encoder).shared)
	e.raw(`,"models":`)
	list(e, st.Models, (*encoder).model)
	e.raw("}")
}

func (e *encoder) shared(s *SharedLibraryState) {
	e.raw(`{"signature":`)
	e.str(&s.Signature)
	e.raw(`,"models":`)
	list(e, s.Models, (*encoder).ref)
	if len(s.SkippedRates) > 0 {
		e.raw(`,"skipped_rates":`)
		list(e, s.SkippedRates, (*encoder).float)
	}
	e.raw("}")
}

func (e *encoder) model(m *ModelState) {
	e.raw(`{"inputs":`)
	list(e, m.Inputs, (*encoder).row)
	e.raw(`,"targets":`)
	list(e, m.Targets, (*encoder).float)
	e.raw("}")
}

// row writes one row of a model's inputs.
func (e *encoder) row(v *[]float64) { list(e, *v, (*encoder).float) }

func (e *encoder) ref(r *ModelRef) {
	e.raw(`{"rate_rps":`)
	e.float(&r.RateRPS)
	e.raw(`,"model":`)
	e.int(&r.Model)
	e.raw("}")
}

func (e *encoder) job(j *JobState) {
	e.raw(`{"name":`)
	e.str(&j.Name)
	e.raw(`,"workload":`)
	e.str(&j.Workload)
	e.raw(`,"signature":`)
	e.str(&j.Signature)
	e.raw(`,"rate_rps":`)
	e.float(&j.RateRPS)
	e.raw(`,"target_latency_ms":`)
	e.float(&j.TargetLatencyMS)
	e.raw(`,"machines":`)
	e.int(&j.Machines)
	e.raw(`,"cores_per_machine":`)
	e.int(&j.CoresPerMachine)
	e.raw(`,"mem_per_machine_mb":`)
	e.int(&j.MemPerMachineMB)
	e.raw(`,"max_iterations":`)
	e.int(&j.MaxIterations)
	e.raw(`,"schedule":`)
	e.schedule(&j.Schedule)
	e.raw(`,"state":`)
	e.str(&j.State)
	if j.Error != "" {
		e.raw(`,"error":`)
		e.str(&j.Error)
	}
	e.raw(`,"submitted_at_sec":`)
	e.float(&j.SubmittedAtSec)
	e.raw(`,"engine_now_sec":`)
	e.float(&j.EngineNowSec)
	e.raw(`,"due_at_sec":`)
	e.float(&j.DueAtSec)
	e.raw(`,"seed":`)
	e.uint(&j.Seed)
	e.raw(`,"parallelism":`)
	list(e, j.Parallelism, (*encoder).int)
	e.raw(`,"restarts":`)
	e.int(&j.Restarts)
	e.raw(`,"rng_state":`)
	e.uint(&j.RNGState)
	e.raw(`,"controller":`)
	e.controller(&j.Controller)
	if len(j.Library) > 0 {
		e.raw(`,"library":`)
		list(e, j.Library, (*encoder).ref)
	}
	if len(j.LibrarySkipped) > 0 {
		e.raw(`,"library_skipped":`)
		list(e, j.LibrarySkipped, (*encoder).float)
	}
	e.raw(`,"steps":`)
	e.int(&j.Steps)
	e.raw(`,"warm_started":`)
	e.bool(&j.WarmStarted)
	if j.WarmSourceRate != 0 {
		e.raw(`,"warm_source_rate":`)
		e.float(&j.WarmSourceRate)
	}
	if len(j.PublishedRates) > 0 {
		e.raw(`,"published_rates":`)
		list(e, j.PublishedRates, (*encoder).float)
	}
	e.raw("}")
}

// schedule writes a schedule descriptor, a noisy one with its base inside.
func (e *encoder) schedule(s *ScheduleState) {
	e.raw(`{"kind":`)
	e.str(&s.Kind)
	e.optFloat(`,"shift_sec":`, &s.ShiftSec)
	if s.Degraded {
		e.raw(`,"degraded":true`)
	}
	e.optFloat(`,"rate_rps":`, &s.RateRPS)
	if len(s.Steps) > 0 {
		e.raw(`,"steps":`)
		list(e, s.Steps, (*encoder).step)
	}
	e.optFloat(`,"mean":`, &s.Mean)
	e.optFloat(`,"amplitude":`, &s.Amplitude)
	e.optFloat(`,"period_sec":`, &s.PeriodSec)
	e.optFloat(`,"phase_sec":`, &s.PhaseSec)
	e.optFloat(`,"night_rate":`, &s.NightRate)
	e.optFloat(`,"peak_rate":`, &s.PeakRate)
	e.optFloat(`,"peak_at_sec":`, &s.PeakAtSec)
	e.optFloat(`,"sharpness":`, &s.Sharpness)
	e.optFloat(`,"base_rate":`, &s.BaseRate)
	e.optFloat(`,"start_sec":`, &s.StartSec)
	e.optFloat(`,"ramp_sec":`, &s.RampSec)
	e.optFloat(`,"hold_sec":`, &s.HoldSec)
	e.optFloat(`,"decay_tau_sec":`, &s.DecayTauSec)
	e.optFloat(`,"min_rate":`, &s.MinRate)
	e.optFloat(`,"max_rate":`, &s.MaxRate)
	e.optFloat(`,"sigma":`, &s.Sigma)
	if s.Seed != 0 {
		e.raw(`,"seed":`)
		e.uint(&s.Seed)
	}
	if s.Base != nil {
		e.raw(`,"base":`)
		e.schedule(s.Base)
	}
	e.raw("}")
}

// optFloat writes an omitempty float field: key and value, unless the
// value is zero. NaN is not zero, so it is written, and refused.
func (e *encoder) optFloat(key string, v *float64) {
	if *v != 0 {
		e.raw(key)
		e.float(v)
	}
}

func (e *encoder) step(s *ScheduleStep) {
	e.raw(`{"from_sec":`)
	e.float(&s.FromSec)
	e.raw(`,"rate":`)
	e.float(&s.Rate)
	e.raw("}")
}

func (e *encoder) controller(c *core.ControllerState) {
	e.raw(`{"cur_rate":`)
	e.float(&c.CurRate)
	e.raw(`,"rate_ewma_value":`)
	e.float(&c.RateEWMAValue)
	e.raw(`,"rate_ewma_started":`)
	e.bool(&c.RateEWMAStarted)
	e.raw(`,"last_slo":`)
	e.str((*string)(&c.LastSLO))
	e.raw(`,"slo":`)
	e.tracker(&c.SLO)
	if len(c.Base) > 0 {
		e.raw(`,"base":`)
		list(e, c.Base, (*encoder).int)
	}
	e.raw(`,"policy":`)
	e.str(&c.PolicyName)
	e.raw("}")
}

func (e *encoder) tracker(t *slo.TrackerState) {
	e.raw(`{"lat_fast":`)
	e.window(&t.LatFast)
	e.raw(`,"lat_slow":`)
	e.window(&t.LatSlow)
	e.raw(`,"lag_fast":`)
	e.window(&t.LagFast)
	e.raw(`,"lag_slow":`)
	e.window(&t.LagSlow)
	e.raw(`,"observations":`)
	e.int(&t.Observations)
	e.raw(`,"last_sec":`)
	e.float(&t.LastSec)
	e.raw("}")
}

func (e *encoder) window(w *slo.WindowState) {
	e.raw(`{"value":`)
	e.float(&w.Value)
	e.raw(`,"last_sec":`)
	e.float(&w.LastSec)
	e.raw(`,"started":`)
	e.bool(&w.Started)
	e.raw("}")
}
