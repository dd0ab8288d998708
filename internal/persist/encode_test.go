package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// typedPayload is the typed writer's payload for st, in memory.
func typedPayload(tb testing.TB, st *FleetState) ([]byte, error) {
	tb.Helper()
	var buf bytes.Buffer
	e := newEncoder(&buf)
	e.payload(st, nil)
	return buf.Bytes(), e.err
}

// checkWriter asserts that the typed writer writes st exactly as
// json.Marshal does: the same bytes, or an error where json.Marshal
// refuses it.
func checkWriter(t *testing.T, st *FleetState) {
	t.Helper()
	want, werr := json.Marshal(st)
	got, err := typedPayload(t, st)
	if (err != nil) != (werr != nil) {
		t.Fatalf("typed writer error %v, json.Marshal error %v", err, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("typed writer and json.Marshal part at byte %d:\n got %s\nwant %s", i, got[max(0, i-40):min(len(got), i+80)], want[max(0, i-40):min(len(want), i+80)])
	}
}

// TestTypedWriterMatchesMarshal holds the typed writer to json.Marshal's
// bytes: on a state with every field set (a payload field added without
// its case in encode.go fails here), on a fleet-sized state, and on the
// floats and strings encoding/json formats in its own way.
func TestTypedWriterMatchesMarshal(t *testing.T) {
	everyField := new(FleetState)
	next := 0
	fillEvery(t, reflect.ValueOf(everyField).Elem(), &next, 0)

	floats := sampleState()
	negZero := math.Copysign(0, -1)
	floats.Models[0].Targets = []float64{
		1e-6, 1e-7, 1e21, 5e-324, negZero, math.MaxFloat64, -1e-7, -1e21,
		1e20, 1e15, 1e15 - 1, -(1e15 - 1), 0.1, 1.5e-300, 123456.789, 2.5e-8,
	}
	floats.NowSec = negZero
	floats.Jobs[0].WarmSourceRate = negZero // omitempty leaves -0 out
	floats.Jobs[0].Schedule.Mean = negZero
	floats.Jobs[0].Controller.SLO.LatFast.Value = 1e-9

	strs := sampleState()
	strs.Chaos = "a<b>c&d"
	strs.Jobs[0].Name = "line\u2028separator\u2029"
	strs.Jobs[0].Error = "control\x01byte\t\n"
	strs.Jobs[0].Signature = "invalid\xff\xfeutf8"
	strs.Jobs[0].Workload = `quote" and back\slash`
	strs.Jobs[0].State = "ünïcode"
	strs.Shared[0].Signature = "del\x7f"

	empties := sampleState()
	empties.Jobs[0].Parallelism = []int{}
	empties.Jobs[0].Library = []ModelRef{}
	empties.Models[0].Inputs = [][]float64{nil, {}}
	empties.Models[1].Targets = nil
	empties.Shared[0].Models = nil

	deep := sampleState()
	s := &deep.Jobs[0].Schedule
	for i := 0; i < 2*maxScheduleDepth; i++ {
		s.Base = &ScheduleState{Kind: scheduleKindNoisy, Sigma: float64(i) / 8, Seed: uint64(i)}
		s = s.Base
	}

	for _, c := range []struct {
		name string
		st   *FleetState
	}{
		{"every field", everyField},
		{"1000 jobs", fleetOfJobs(1000)},
		{"floats", floats},
		{"strings", strs},
		{"empty and nil slices", empties},
		{"deep schedule", deep},
		{"zero state", new(FleetState)},
	} {
		t.Run(c.name, func(t *testing.T) { checkWriter(t, c.st) })
	}
}

// The snapshot Encode writes, and the file WriteFile writes, are
// json.Marshal's payload sealed in its envelope, byte for byte.
func TestSnapshotBytesUnchanged(t *testing.T) {
	st := fleetOfJobs(300)
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Appendf(nil, "{\"version\":%d,\"sha256\":%q,\"payload\":%s}\n", formatVersion, sha256Hex(payload), payload)
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Encode wrote %d bytes that differ from the sealed json.Marshal payload (%d bytes)", buf.Len(), len(want))
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("WriteFile wrote %d bytes that differ from Encode's %d", len(file), len(want))
	}
}

// nonFiniteStates are states json.Marshal refuses: a NaN or an infinity
// in an SLO window's value, near the payload's start, or in a model
// target, near its end, after more than a 64 KB buffer of it.
func nonFiniteStates() map[string]*FleetState {
	out := make(map[string]*FleetState)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		target := fleetOfJobs(200)
		target.Models[len(target.Models)-1].Targets[1] = v
		out[fmt.Sprintf("model target %v", v)] = target
		window := fleetOfJobs(200)
		window.Jobs[3].Controller.SLO.LatSlow.Value = v
		out[fmt.Sprintf("SLO value %v", v)] = window
	}
	return out
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// Encode refuses what json.Marshal refuses, with its error, and writes
// nothing to w: the checksum pass meets the value before w sees a byte.
func TestEncodeRefusesNonFinite(t *testing.T) {
	for name, st := range nonFiniteStates() {
		t.Run(name, func(t *testing.T) {
			_, werr := json.Marshal(st)
			var w countingWriter
			err := Encode(&w, st)
			if err == nil || werr == nil || err.Error() != "persist: marshal payload: "+werr.Error() {
				t.Fatalf("Encode error %v, want persist: marshal payload: %v", err, werr)
			}
			if w.n != 0 {
				t.Fatalf("Encode wrote %d bytes before failing", w.n)
			}
			checkWriter(t, st)
		})
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, fmt.Errorf("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// A writer that fails mid-snapshot fails Encode with the writer's error.
func TestEncodeReportsWriteError(t *testing.T) {
	err := Encode(&failingWriter{n: 20 << 10}, fleetOfJobs(200))
	if err == nil || !strings.Contains(err.Error(), "persist: encode snapshot: disk full") {
		t.Fatalf("Encode error %v, want the writer's", err)
	}
}
