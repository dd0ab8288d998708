package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autrascale/internal/kafka"
)

func sampleState() *FleetState {
	return &FleetState{
		NowSec:     1800,
		Rounds:     30,
		TotalCores: 128,
		RoundSec:   60,
		Seed:       42,
		Chaos:      "heavy",
		Jobs: []JobState{{
			Name:            "wordcount-01",
			Workload:        "wordcount",
			Signature:       "wordcount",
			RateRPS:         150e3,
			TargetLatencyMS: 180,
			Machines:        2,
			CoresPerMachine: 16,
			MemPerMachineMB: 65536,
			MaxIterations:   10,
			Schedule:        ScheduleState{Kind: scheduleKindConstant, RateRPS: 150e3, ShiftSec: 1740},
			State:           "running",
			SubmittedAtSec:  0,
			EngineNowSec:    1740,
			DueAtSec:        1740,
			Seed:            7,
			Parallelism:     []int{2, 3, 1},
			Restarts:        4,
			RNGState:        0xdeadbeef,
			Library: []ModelState{{
				RateRPS: 150e3,
				Inputs:  [][]float64{{1}, {2}, {3}},
				Targets: []float64{0.9, 0.5, 0.3},
			}},
			Steps:          29,
			PublishedRates: []float64{150e3},
		}},
		Shared: []SharedLibraryState{{
			Signature: "wordcount",
			Models: []ModelState{{
				RateRPS: 150e3,
				Inputs:  [][]float64{{1}, {2}},
				Targets: []float64{0.8, 0.4},
			}},
			SkippedRates: []float64{99e3},
		}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(st)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", a, b)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte inside the payload (find a digit to perturb safely).
	corrupted := bytes.Replace(raw, []byte(`"rounds":30`), []byte(`"rounds":31`), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption target not found")
	}
	if _, err := Decode(bytes.NewReader(corrupted)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: err = %v, want ErrChecksum", err)
	}

	// Truncation never yields a state either.
	if _, err := Decode(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
}

// The checksum is over the compact payload, so a re-indented snapshot —
// the form earlier builds wrote to disk — still verifies and decodes to
// the same state, and corrupting it is still ErrChecksum.
func TestDecodeIndentedSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", " "); err != nil {
		t.Fatal(err)
	}
	raw := indented.Bytes()

	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(sampleState())
	if back, _ := json.Marshal(got); !bytes.Equal(back, want) {
		t.Fatalf("indented snapshot decoded to\n%s\nwant\n%s", back, want)
	}

	corrupted := bytes.Replace(raw, []byte(`"rounds": 30`), []byte(`"rounds": 31`), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption target not found")
	}
	if _, err := Decode(bytes.NewReader(corrupted)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted indented payload: err = %v, want ErrChecksum", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"version":99,"sha256":"","payload":{}}`)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := WriteFile(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	st, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.NowSec != 1800 || len(st.Jobs) != 1 {
		t.Fatalf("read back NowSec=%v jobs=%d", st.NowSec, len(st.Jobs))
	}
	// Overwrite leaves no temp litter behind.
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only snap.json", names)
	}
}

func TestScheduleDescribeBuildRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		s    kafka.RateSchedule
	}{
		{"constant", kafka.ConstantRate(100e3)},
		{"step", kafka.StepSchedule{Steps: []kafka.Step{{FromSec: 0, Rate: 100e3}, {FromSec: 1200, Rate: 160e3}}}},
		{"sinusoidal", kafka.SinusoidalRate{Mean: 100e3, Amplitude: 20e3, PeriodSec: 3600, PhaseSec: 300}},
		{"diurnal", kafka.DiurnalRate{NightRate: 40e3, PeakRate: 180e3, PeriodSec: 86400, PeakAtSec: 43200, Sharpness: 3}},
		{"flash-crowd", kafka.FlashCrowdRate{BaseRate: 80e3, PeakRate: 300e3, StartSec: 900, RampSec: 60, HoldSec: 120, DecayTauSec: 300}},
		{"sawtooth", kafka.SawtoothRate{MinRate: 50e3, MaxRate: 150e3, PeriodSec: 1800, PhaseSec: 0}},
		{"noisy", kafka.NoisyRate{Base: kafka.ConstantRate(120e3), Sigma: 0.05, Seed: 9}},
	}
	const shift = 1740.0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, exact := DescribeSchedule(tc.s, shift)
			if !exact {
				t.Fatalf("%s should describe exactly", tc.name)
			}
			// Descriptors must survive JSON (the snapshot's transport).
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back ScheduleState
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := BuildSchedule(back)
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range []float64{0, 1, 59.5, 600, 4000} {
				want := tc.s.RateAt(sec + shift)
				got := rebuilt.RateAt(sec)
				if math.Abs(want-got) > 1e-9 {
					t.Fatalf("RateAt(%v) = %v, want original RateAt(%v) = %v", sec, got, sec+shift, want)
				}
			}
		})
	}
}

// opaqueSchedule is a schedule the descriptor set does not cover.
type opaqueSchedule struct{}

func (opaqueSchedule) RateAt(sec float64) float64 { return 111e3 + sec }

func TestScheduleFallbackDegradesToConstant(t *testing.T) {
	st, exact := DescribeSchedule(opaqueSchedule{}, 500)
	if exact {
		t.Fatal("opaque schedule described exactly")
	}
	if !st.Degraded || st.Kind != scheduleKindConstant {
		t.Fatalf("fallback = %+v, want degraded constant", st)
	}
	rebuilt, err := BuildSchedule(st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.RateAt(123), 111e3+500; got != want {
		t.Fatalf("fallback rate = %v, want the capture-time rate %v", got, want)
	}
}

func TestBuildScheduleRejectsUnknownKind(t *testing.T) {
	if _, err := BuildSchedule(ScheduleState{Kind: "mystery"}); err == nil {
		t.Fatal("unknown kind built")
	}
}

func TestCheckpointerCadenceAndClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	rounds := 0
	capture := func() *FleetState {
		st := sampleState()
		st.Rounds = rounds
		return st
	}
	cp, err := NewCheckpointer(path, 3, capture)
	if err != nil {
		t.Fatal(err)
	}
	for rounds = 1; rounds <= 7; rounds++ {
		cp.Tick()
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Close writes the terminal state regardless of cadence position.
	if st.Rounds != 8 {
		t.Fatalf("final checkpoint at rounds=%d, want the terminal capture 8", st.Rounds)
	}
	written, _ := cp.Stats()
	if written < 1 {
		t.Fatalf("written = %d", written)
	}
	// Ticks after Close are ignored.
	cp.Tick()
}

// A Close that runs while a tick is still capturing waits for that tick's
// background write, so the write cannot land over Close's final
// checkpoint after Close has returned.
func TestCheckpointerCloseWaitsForTickWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	capturing, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	capture := func() *FleetState {
		st := sampleState()
		st.Rounds = int(calls.Add(1))
		if st.Rounds == 1 {
			close(capturing)
			<-release
		}
		return st
	}
	cp, err := NewCheckpointer(path, 1, capture)
	if err != nil {
		t.Fatal(err)
	}
	go cp.Tick()
	<-capturing
	closed := make(chan error)
	go func() { closed <- cp.Close() }()
	// A correct Close cannot return before release, whatever the timing;
	// the grace only gives one that does not wait the time to show it.
	select {
	case err := <-closed:
		close(release)
		t.Fatalf("Close returned (err %v) while the tick's write was still pending", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	st, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("file holds capture %d, want Close's capture 2", st.Rounds)
	}
}

func TestCheckpointerValidation(t *testing.T) {
	if _, err := NewCheckpointer("", 1, func() *FleetState { return nil }); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := NewCheckpointer("x", 1, nil); err == nil {
		t.Fatal("nil capture accepted")
	}
}
