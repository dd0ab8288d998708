package persist

import (
	"strconv"

	"autrascale/internal/core"
	"autrascale/internal/slo"
)

// The typed read of a version 2 payload. encoding/json is the format's
// definition: a payload means what json.Unmarshal into FleetState makes
// of it. decodePayload reads the same bytes in one pass, with one
// function per payload type that switches on the exact key, so it pays
// for no reflection and no key allocation. It takes only input it can
// prove json.Unmarshal reads to the same state, and declines the rest —
// Decode then hands the whole payload to json.Unmarshal, so a declined
// input decodes, or fails, exactly as it always did. It declines
//   - a key that is not exactly a field's tag, or one an object repeats
//     (json.Unmarshal folds case, skips unknown keys and merges repeats);
//   - a string holding a backslash or a byte outside 0x20–0x7E (escapes
//     and UTF-8 repair are json.Unmarshal's);
//   - null anywhere but where a slice goes (elsewhere json.Unmarshal
//     leaves the field as it was);
//   - a number outside JSON's grammar, one strconv refuses (its range
//     included), and one that is not an integer where the field is;
//   - bytes after the payload's value, and anything else JSON forbids.

// maxMembers bounds the members one object may have: more than any
// payload type has fields, so an object with more repeats a key or
// holds an unknown one, and is declined either way.
const maxMembers = 32

// maxScheduleDepth bounds how deeply noisy schedules may nest their
// bases — far below json.Unmarshal's nesting limit, which a deeper
// payload is left to meet.
const maxScheduleDepth = 64

// decoder is the reading position in one payload. Once it declines,
// pos is at the end, so every later read declines too and every loop
// ends.
type decoder struct {
	data     []byte
	pos      int
	declined bool
	// Scratch the short arrays collect in before they are copied out at
	// their exact length: one allocation per slice, reused across the
	// whole payload.
	floats []float64
	ints   []int
	rows   [][]float64
	refs   []ModelRef
	steps  []ScheduleStep
	// names holds one copy of each enum-like string (workload, state,
	// policy, …) that thousands of jobs repeat.
	names map[string]string
}

// decodePayload reads a version 2 payload in one typed pass. It reports
// false, and its state is then meaningless, when it cannot prove that
// json.Unmarshal reads the payload to the same state.
func decodePayload(payload []byte) (*FleetState, bool) {
	d := decoder{data: payload}
	st := new(FleetState)
	d.fleet(st)
	d.skipSpace()
	return st, !d.declined && d.pos == len(d.data)
}

// decline gives the payload up to json.Unmarshal.
func (d *decoder) decline() {
	d.declined = true
	d.pos = len(d.data)
}

// skipSpace advances past JSON whitespace.
func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.pos++
	}
}

// peek returns the next byte after whitespace, or 0 at the end (a NUL
// byte in the input is never what a caller looks for either).
func (d *decoder) peek() byte {
	d.skipSpace()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// consume reads the byte c as the next token, or declines.
func (d *decoder) consume(c byte) bool {
	if d.peek() != c {
		d.decline()
		return false
	}
	d.pos++
	return true
}

// literal reads word (true, false or null) if it is the next token.
func (d *decoder) literal(word string) bool {
	d.skipSpace()
	if end := d.pos + len(word); end <= len(d.data) && string(d.data[d.pos:end]) == word {
		d.pos = end
		return true
	}
	return false
}

// plain marks the bytes a string may hold and still be its own value:
// printable ASCII but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text reads a string and returns its bytes: only plain bytes, the
// strings whose bytes are their value.
func (d *decoder) text() []byte {
	if d.peek() != '"' {
		d.decline()
		return nil
	}
	start := d.pos + 1
	i := start
	for i < len(d.data) && plain[d.data[i]] {
		i++
	}
	if i == len(d.data) || d.data[i] != '"' {
		d.decline()
		return nil
	}
	d.pos = i + 1
	return d.data[start:i]
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number reads a number's bytes — JSON's grammar exactly:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and reports whether
// it is an integer, with neither fraction nor exponent.
func (d *decoder) number() (lit []byte, integer bool) {
	d.skipSpace()
	b, start := d.data, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.decline()
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			d.decline()
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.decline()
			return nil, false
		}
		i = j
	}
	d.pos = i
	return b[start:i], integer
}

// smallInt is the value of an integer literal of at most 15 digits, -0
// included.
func smallInt(lit []byte) float64 {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	n := 0
	for _, c := range lit {
		n = 10*n + int(c-'0')
	}
	if neg {
		return -float64(n)
	}
	return float64(n)
}

// float, int, uint, bool, str and name read one value into *v, parsed
// as json.Unmarshal parses it for a field of that type.

func (d *decoder) float(v *float64) {
	lit, integer := d.number()
	if integer && len(lit) <= 15 {
		// Below 10^15 < 2^53 an integer is exactly a float64, which is
		// what ParseFloat returns for it; most of a payload's numbers are
		// such integers.
		*v = smallInt(lit)
		return
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.decline()
		return
	}
	*v = f
}

func (d *decoder) int(v *int) {
	lit, integer := d.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if !integer || err != nil {
		d.decline()
		return
	}
	*v = int(n)
}

func (d *decoder) uint(v *uint64) {
	lit, integer := d.number()
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if !integer || err != nil {
		d.decline()
		return
	}
	*v = n
}

func (d *decoder) bool(v *bool) {
	switch {
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	default:
		d.decline()
	}
}

func (d *decoder) str(v *string) {
	if b := d.text(); !d.declined {
		*v = string(b)
	}
}

// name reads a string that many jobs share, allocating it once.
func (d *decoder) name(v *string) {
	b := d.text()
	if d.declined {
		return
	}
	s, ok := d.names[string(b)]
	if !ok {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		s = string(b)
		d.names[s] = s
	}
	*v = s
}

// array reads an array whose elements elem reads, or null. Like
// json.Unmarshal it returns nil for null and a non-nil slice otherwise.
// The elements collect in scratch and move out into a slice of exactly
// their number, so an element must not read an array into the same
// scratch.
func array[T any](d *decoder, scratch *[]T, elem func(*decoder, *T)) []T {
	if d.literal("null") || !d.consume('[') {
		return nil
	}
	var zero T
	for d.element(len(*scratch)) {
		// Read in place: a local element would escape through elem.
		*scratch = append(*scratch, zero)
		elem(d, &(*scratch)[len(*scratch)-1])
	}
	out := make([]T, len(*scratch))
	copy(out, *scratch)
	*scratch = (*scratch)[:0]
	return out
}

// longArray is array for the payload's long arrays, which no scratch
// could hold without growing for every payload. Their elements collect
// in chunks that double up to maxChunk and move out once, so a long
// array is copied once, not at every growth.
func longArray[T any](d *decoder, elem func(*decoder, *T)) []T {
	if d.literal("null") || !d.consume('[') {
		return nil
	}
	const maxChunk = 1024
	var (
		zero   T
		full   [][]T
		n      int
		recent = make([]T, 0, 16)
	)
	for ; d.element(n); n++ {
		if len(recent) == cap(recent) {
			full = append(full, recent)
			recent = make([]T, 0, min(2*cap(recent), maxChunk))
		}
		recent = append(recent, zero)
		elem(d, &recent[len(recent)-1])
	}
	out := make([]T, 0, n)
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, recent...)
}

// element reads the separator before an array's next element, given
// how many it has read, and reports whether one follows: false at the
// closing bracket, and on a decline.
func (d *decoder) element(read int) bool {
	if d.peek() == ']' {
		d.pos++
		return false
	}
	return read == 0 && !d.declined || read > 0 && d.consume(',')
}

// members is the reading position in one object: whether its brace is
// open, its current key, and where the keys read so far start in the
// payload, which a repeat must not match. hashes has a bit set for each
// key read (keyBit), so most keys are new without a look at the others.
type members struct {
	open   bool
	key    []byte
	n      int
	hashes uint64
	seen   [maxMembers]int
}

// keyBit hashes a key to one of 64 bits by its length and end bytes.
func keyBit(key []byte) uint64 {
	h := len(key)
	if h > 0 {
		h = h*31 + int(key[0])*7 + int(key[len(key)-1])
	}
	return 1 << (h & 63)
}

// member reads the object's opening brace on the first call, then the
// separator before the next member and that member's key and colon
// into o.key. It reports false at the object's closing brace, and on a
// decline.
func (d *decoder) member(o *members) bool {
	if !o.open {
		o.open = true
		if !d.consume('{') {
			return false
		}
	}
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return false
	case o.n > 0 && c != ',':
		d.decline()
		return false
	case o.n > 0:
		d.pos++
	}
	if o.n == maxMembers || d.peek() != '"' {
		d.decline()
		return false
	}
	off := d.pos + 1
	key := d.text()
	if !d.consume(':') {
		return false
	}
	bit := keyBit(key)
	if o.hashes&bit != 0 {
		// A key holds no quote, so the one read at k repeats key exactly
		// when its bytes start with key and a quote follows. (prev runs
		// on past key, which lies behind it.)
		for _, k := range o.seen[:o.n] {
			if prev := d.data[k:]; string(prev[:len(key)]) == string(key) && prev[len(key)] == '"' {
				d.decline()
				return false
			}
		}
	}
	o.hashes |= bit
	o.seen[o.n] = off
	o.n++
	o.key = key
	return true
}

// One function per payload type: each case is one field, keyed by its
// exact tag.

func (d *decoder) fleet(st *FleetState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "now_sec":
			d.float(&st.NowSec)
		case "rounds":
			d.int(&st.Rounds)
		case "total_cores":
			d.int(&st.TotalCores)
		case "round_sec":
			d.float(&st.RoundSec)
		case "seed":
			d.uint(&st.Seed)
		case "chaos_profile":
			d.name(&st.Chaos)
		case "jobs":
			st.Jobs = longArray(d, (*decoder).job)
		case "shared_libraries":
			st.Shared = longArray(d, (*decoder).shared)
		case "models":
			st.Models = longArray(d, (*decoder).model)
		default:
			d.decline()
		}
	}
}

func (d *decoder) shared(s *SharedLibraryState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "signature":
			d.name(&s.Signature)
		case "models":
			s.Models = array(d, &d.refs, (*decoder).ref)
		case "skipped_rates":
			s.SkippedRates = array(d, &d.floats, (*decoder).float)
		default:
			d.decline()
		}
	}
}

func (d *decoder) model(m *ModelState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "inputs":
			m.Inputs = array(d, &d.rows, (*decoder).row)
		case "targets":
			m.Targets = array(d, &d.floats, (*decoder).float)
		default:
			d.decline()
		}
	}
}

// row reads one row of a model's inputs.
func (d *decoder) row(v *[]float64) { *v = array(d, &d.floats, (*decoder).float) }

func (d *decoder) ref(r *ModelRef) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "rate_rps":
			d.float(&r.RateRPS)
		case "model":
			d.int(&r.Model)
		default:
			d.decline()
		}
	}
}

func (d *decoder) job(j *JobState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "name":
			d.str(&j.Name)
		case "workload":
			d.name(&j.Workload)
		case "signature":
			d.name(&j.Signature)
		case "rate_rps":
			d.float(&j.RateRPS)
		case "target_latency_ms":
			d.float(&j.TargetLatencyMS)
		case "machines":
			d.int(&j.Machines)
		case "cores_per_machine":
			d.int(&j.CoresPerMachine)
		case "mem_per_machine_mb":
			d.int(&j.MemPerMachineMB)
		case "max_iterations":
			d.int(&j.MaxIterations)
		case "schedule":
			d.schedule(&j.Schedule, 0)
		case "state":
			d.name(&j.State)
		case "error":
			d.str(&j.Error)
		case "submitted_at_sec":
			d.float(&j.SubmittedAtSec)
		case "engine_now_sec":
			d.float(&j.EngineNowSec)
		case "due_at_sec":
			d.float(&j.DueAtSec)
		case "seed":
			d.uint(&j.Seed)
		case "parallelism":
			j.Parallelism = array(d, &d.ints, (*decoder).int)
		case "restarts":
			d.int(&j.Restarts)
		case "rng_state":
			d.uint(&j.RNGState)
		case "controller":
			d.controller(&j.Controller)
		case "library":
			j.Library = array(d, &d.refs, (*decoder).ref)
		case "library_skipped":
			j.LibrarySkipped = array(d, &d.floats, (*decoder).float)
		case "steps":
			d.int(&j.Steps)
		case "warm_started":
			d.bool(&j.WarmStarted)
		case "warm_source_rate":
			d.float(&j.WarmSourceRate)
		case "published_rates":
			j.PublishedRates = array(d, &d.floats, (*decoder).float)
		default:
			d.decline()
		}
	}
}

// schedule reads a schedule descriptor; depth counts the noisy bases
// around it.
func (d *decoder) schedule(s *ScheduleState, depth int) {
	if depth > maxScheduleDepth {
		d.decline()
		return
	}
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "kind":
			d.name(&s.Kind)
		case "shift_sec":
			d.float(&s.ShiftSec)
		case "degraded":
			d.bool(&s.Degraded)
		case "rate_rps":
			d.float(&s.RateRPS)
		case "steps":
			s.Steps = array(d, &d.steps, (*decoder).step)
		case "mean":
			d.float(&s.Mean)
		case "amplitude":
			d.float(&s.Amplitude)
		case "period_sec":
			d.float(&s.PeriodSec)
		case "phase_sec":
			d.float(&s.PhaseSec)
		case "night_rate":
			d.float(&s.NightRate)
		case "peak_rate":
			d.float(&s.PeakRate)
		case "peak_at_sec":
			d.float(&s.PeakAtSec)
		case "sharpness":
			d.float(&s.Sharpness)
		case "base_rate":
			d.float(&s.BaseRate)
		case "start_sec":
			d.float(&s.StartSec)
		case "ramp_sec":
			d.float(&s.RampSec)
		case "hold_sec":
			d.float(&s.HoldSec)
		case "decay_tau_sec":
			d.float(&s.DecayTauSec)
		case "min_rate":
			d.float(&s.MinRate)
		case "max_rate":
			d.float(&s.MaxRate)
		case "sigma":
			d.float(&s.Sigma)
		case "seed":
			d.uint(&s.Seed)
		case "base":
			s.Base = new(ScheduleState)
			d.schedule(s.Base, depth+1)
		default:
			d.decline()
		}
	}
}

func (d *decoder) step(s *ScheduleStep) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "from_sec":
			d.float(&s.FromSec)
		case "rate":
			d.float(&s.Rate)
		default:
			d.decline()
		}
	}
}

func (d *decoder) controller(c *core.ControllerState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "cur_rate":
			d.float(&c.CurRate)
		case "rate_ewma_value":
			d.float(&c.RateEWMAValue)
		case "rate_ewma_started":
			d.bool(&c.RateEWMAStarted)
		case "last_slo":
			d.name((*string)(&c.LastSLO))
		case "slo":
			d.tracker(&c.SLO)
		case "base":
			c.Base = array(d, &d.ints, (*decoder).int)
		case "policy":
			d.name(&c.PolicyName)
		default:
			d.decline()
		}
	}
}

func (d *decoder) tracker(t *slo.TrackerState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "lat_fast":
			d.window(&t.LatFast)
		case "lat_slow":
			d.window(&t.LatSlow)
		case "lag_fast":
			d.window(&t.LagFast)
		case "lag_slow":
			d.window(&t.LagSlow)
		case "observations":
			d.int(&t.Observations)
		case "last_sec":
			d.float(&t.LastSec)
		default:
			d.decline()
		}
	}
}

func (d *decoder) window(w *slo.WindowState) {
	var o members
	for d.member(&o) {
		switch string(o.key) {
		case "value":
			d.float(&w.Value)
		case "last_sec":
			d.float(&w.LastSec)
		case "started":
			d.bool(&w.Started)
		default:
			d.decline()
		}
	}
}
