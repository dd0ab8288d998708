package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/slo"
)

// typedCase is a version 2 payload and whether the typed pass takes it.
type typedCase struct {
	name    string
	payload []byte
	taken   bool
}

// typedCases are sampleState's payload and edits of it: each way the
// typed pass must decline, and the unusual inputs it must still take.
func typedCases(tb testing.TB) []typedCase {
	payload, err := json.Marshal(sampleState())
	if err != nil {
		tb.Fatal(err)
	}
	schedule, err := json.Marshal(sampleState().Jobs[0].Schedule)
	if err != nil {
		tb.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, payload, "", "  "); err != nil {
		tb.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(payload, []byte(old)) {
			tb.Fatalf("sample payload holds no %s", old)
		}
		return bytes.Replace(payload, []byte(old), []byte(new), 1)
	}
	return []typedCase{
		{"compact", payload, true},
		{"indented", indented.Bytes(), true},
		{"empty slice", edit(`"parallelism":[2,3,1]`, `"parallelism":[]`), true},
		{"null slice", edit(`"parallelism":[2,3,1]`, `"parallelism":null`), true},
		{"largest seed", edit(`"seed":42`, `"seed":18446744073709551615`), true},
		{"negative zero float", edit(`"now_sec":1800`, `"now_sec":-0`), true},
		{"escaped name", edit(`"name":"wordcount-01"`, `"name":"wordcount\u002d01"`), false},
		{"non-ASCII name", edit(`"name":"wordcount-01"`, `"name":"wördcount-01"`), false},
		{"case-folded key", edit(`"name":`, `"Name":`), false},
		{"duplicate key", edit(`"rounds":30`, `"rounds":30,"rounds":31`), false},
		{"unknown key", edit(`"rounds":30`, `"rounds":30,"extra":1`), false},
		{"null number", edit(`"rounds":30`, `"rounds":null`), false},
		{"null struct", edit(`"schedule":`+string(schedule), `"schedule":null`), false},
		{"float out of range", edit(`"now_sec":1800`, `"now_sec":1e400`), false},
		{"leading zero", edit(`"rounds":30`, `"rounds":01`), false},
		{"fraction in an int", edit(`"rounds":30`, `"rounds":30.0`), false},
		{"negative zero seed", edit(`"seed":42`, `"seed":-0`), false},
		{"trailing bytes", append(bytes.Clone(payload), " {}"...), false},
	}
}

// Each typedCase goes the way it says, and Decode gives on it what
// json.Unmarshal gives: the same state, or the same error.
func TestTypedPassCases(t *testing.T) {
	for _, c := range typedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if taken := checkTypedPass(t, c.payload); taken != c.taken {
				t.Fatalf("typed pass took it: %t, want %t", taken, c.taken)
			}
			sealed := fmt.Appendf(nil, `{"version":%d,"sha256":%q,"payload":%s}`, formatVersion, sha256Hex(c.payload), c.payload)
			got, err := Decode(bytes.NewReader(sealed))
			var want FleetState
			if jerr := json.Unmarshal(c.payload, &want); jerr != nil {
				if wantErr := "persist: decode snapshot payload: " + jerr.Error(); err == nil || err.Error() != wantErr {
					t.Fatalf("Decode error %v, want %s", err, wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, &want) {
				t.Fatalf("Decode = %+v, %v; json.Unmarshal reads %+v", got, err, &want)
			}
		})
	}
}

// TestTypedPassTakesEveryField sets every field of FleetState, however
// deep, to a distinct non-zero value, every slice to two elements, and
// holds that the typed pass takes the encoding and reads it back whole.
// A payload field added without its case in decode.go fails here,
// instead of sending every snapshot down json.Unmarshal's slow path.
func TestTypedPassTakesEveryField(t *testing.T) {
	var st FleetState
	next := 0
	fillEvery(t, reflect.ValueOf(&st).Elem(), &next, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, &st); err != nil {
		t.Fatal(err)
	}
	_, payload, err := envelope(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodePayload(payload)
	if !ok {
		t.Fatalf("the typed pass declined a payload with every field set, so some field has no case in decode.go:\n%s", payload)
	}
	if !reflect.DeepEqual(got, &st) {
		t.Fatalf("the typed pass read\n%+v\nfrom a state of\n%+v", got, &st)
	}
}

// fillEvery sets v and everything in it to distinct non-zero values,
// counting in *next: slices get two elements, and pointers a value to
// two levels (a schedule's base, and that base's base).
func fillEvery(t *testing.T, v reflect.Value, next *int, depth int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillEvery(t, v.Field(i), next, depth)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillEvery(t, v.Index(i), next, depth)
		}
	case reflect.Pointer:
		if depth < 2 {
			v.Set(reflect.New(v.Type().Elem()))
			fillEvery(t, v.Elem(), next, depth+1)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s-%d", *next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(1<<63 + uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillEvery has no value for a %s", v.Type())
	}
}

// fleetOfJobs is a payload shaped like a running fleet's: n jobs, each
// with its controller state, a private library reference and a published
// rate, n three-operator models of two or three samples, and one shared
// library referencing them all.
func fleetOfJobs(n int) *FleetState {
	st := sampleState()
	tmpl := st.Jobs[0]
	st.Jobs, st.Models = make([]JobState, n), make([]ModelState, n)
	st.Shared[0].Models = make([]ModelRef, n)
	for i := range st.Jobs {
		rate := 150e3 + float64(i)*10.5
		js := tmpl
		js.Name = fmt.Sprintf("wordcount-%04d", i)
		js.RateRPS, js.Schedule.RateRPS = rate, rate
		js.Seed, js.RNGState = uint64(i)*0x9e3779b97f4a7c15, uint64(i)*0xbf58476d1ce4e5b9
		js.Parallelism = []int{2, 3, 1 + i%4}
		js.Controller = core.ControllerState{
			CurRate: rate, RateEWMAValue: rate, RateEWMAStarted: true, LastSLO: slo.StateHealthy,
			SLO: slo.TrackerState{
				LatFast:      slo.WindowState{Value: 0.0003035391380788847, LastSec: 1740, Started: true},
				LatSlow:      slo.WindowState{Value: 0.5091564206075493, LastSec: 1740, Started: true},
				LagFast:      slo.WindowState{LastSec: 1740, Started: true},
				LagSlow:      slo.WindowState{LastSec: 1740, Started: true},
				Observations: 6, LastSec: 1740,
			},
			Base: []int{2, 3, 1 + i%4}, PolicyName: "bo",
		}
		js.Library = []ModelRef{{RateRPS: rate, Model: i}}
		js.PublishedRates = []float64{rate}
		st.Jobs[i] = js
		st.Models[i] = ModelState{
			Inputs:  [][]float64{{2, 3, 1}, {10, 10, 10}, {32, 3, 1}}[:2+i%2],
			Targets: []float64{1, 0.8125, 0.88671875}[:2+i%2],
		}
		st.Shared[0].Models[i] = ModelRef{RateRPS: rate, Model: i}
	}
	return st
}

// TestDecodeAllocations pins the allocations of Decode on a 1,000-job
// snapshot. The typed pass allocates each string and slice of the state
// once, at its length, and shares each enum-like string: 9 603 allocations
// here, where json.Unmarshal made 27 597. The ceiling is that count plus a
// little slack: growth fails tier-1, and a drop is a reason to tighten it.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const jobs, max = 1000, 9_610
	var blob bytes.Buffer
	if err := Encode(&blob, fleetOfJobs(jobs)); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := envelope(blob.Bytes()); err != nil || !checkTypedPass(t, payload) {
		t.Fatalf("the typed pass declined the generated fleet (%v)", err)
	}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := Decode(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); got > max {
		t.Errorf("Decode of %d jobs: %v allocs, contract is <= %d", jobs, got, max)
	}
}

// TestEncodeAllocations pins the allocations of WriteFile and Encode:
// the typed writer streams the payload through one scratch buffer, so
// each makes the same few allocations whatever the payload's size — 19
// for WriteFile (the temp file, its 64 KB buffer, the hash, the
// scratch) and 3 for Encode — at 100 jobs as at 1,000. json.Marshal
// grew a buffer to the payload's size by doubling, then copied it out.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const maxWrite, maxEncode = 20, 3
	path := filepath.Join(t.TempDir(), "snap.json")
	var write, encode [2]float64
	for i, jobs := range []int{100, 1000} {
		st := fleetOfJobs(jobs)
		write[i] = testing.AllocsPerRun(3, func() {
			if err := WriteFile(path, st); err != nil {
				t.Fatal(err)
			}
		})
		encode[i] = testing.AllocsPerRun(3, func() {
			if err := Encode(io.Discard, st); err != nil {
				t.Fatal(err)
			}
		})
		if write[i] > maxWrite || encode[i] > maxEncode {
			t.Errorf("%d jobs: WriteFile %v allocs, Encode %v; contract is <= %d and <= %d", jobs, write[i], encode[i], maxWrite, maxEncode)
		}
	}
	if write[0] != write[1] || encode[0] != encode[1] {
		t.Errorf("allocations grow with the payload: WriteFile %v, Encode %v at 100 and 1,000 jobs", write, encode)
	}
}
