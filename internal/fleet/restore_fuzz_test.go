package fleet

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"autrascale/internal/chaos"
	"autrascale/internal/persist"
	"autrascale/internal/workloads"
)

// soakedFleet is the fixture both tests below start from: 6 staggered
// WordCount jobs under light chaos, seed 7, run 3000 s — long enough that
// every job has planned, published models and (some) warm-started.
func soakedFleet(t testing.TB) *Fleet {
	t.Helper()
	f, err := New(Config{TotalCores: 6 * 32, Seed: 7, Chaos: chaos.Light()})
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range StaggeredJobs(workloads.WordCount(), 6, 0) {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(3000)
	return f
}

// restoreOK restores a decoded snapshot that must restore.
func restoreOK(t testing.TB, st *persist.FleetState) *Fleet {
	t.Helper()
	f, err := Restore(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// snapshot ∘ restore ∘ snapshot is a byte fixpoint: a job
// captures identically whichever entry point built it. The first hop —
// from jobs Submit built to jobs Restore built — moves exactly the
// documented clock re-origin (docs/durability.md): the rebuilt engine
// restarts at zero, so the job's time origin becomes its due time and the
// SLO windows shift with it. After that a capture restores to itself.
func TestSnapshotRestoreFixpoint(t *testing.T) {
	st1, _ := snapshotThroughBytes(t, soakedFleet(t))
	st2, second := snapshotThroughBytes(t, restoreOK(t, st1))
	_, third := snapshotThroughBytes(t, restoreOK(t, st2))

	if !bytes.Equal(second, third) {
		t.Fatalf("restore is not a fixpoint: capture of a restored fleet is %d B, of its own restore %d B",
			len(second), len(third))
	}
	for i := range st1.Jobs {
		js := &st1.Jobs[i]
		js.Controller.SLO = js.Controller.SLO.Shifted(-js.EngineNowSec)
		js.SubmittedAtSec, js.EngineNowSec = js.DueAtSec, 0
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("first hop moved more than the clock re-origin:\nsubmitted, re-originated: %+v\nrestored:                 %+v", st1, st2)
	}
}

// mutateSnapshot re-encodes a decoded snapshot after an edit, so the
// mutant carries a valid checksum and reaches Restore.
func mutateSnapshot(t testing.TB, raw []byte, edit func(*persist.FleetState)) []byte {
	t.Helper()
	st, err := persist.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	var buf bytes.Buffer
	if err := persist.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Bytes → persist.Decode → Restore never panics: whatever decodes either
// restores or is refused with an error and no fleet. The seed corpus —
// one real snapshot and one well-checksummed mutant per way a snapshot
// can lie about a job or its model table — runs under plain `go test`.
func FuzzRestore(f *testing.F) {
	_, real := snapshotThroughBytes(f, soakedFleet(f))
	f.Add(real)
	for _, edit := range []func(*persist.FleetState){
		func(st *persist.FleetState) { st.Jobs[0].Machines = -1 },
		func(st *persist.FleetState) { st.Jobs[1].Controller.PolicyName = "no-such-policy" },
		func(st *persist.FleetState) { st.Jobs[2].Workload = "no-such-workload" },
		func(st *persist.FleetState) { st.Jobs[3].Name = st.Jobs[0].Name },
		func(st *persist.FleetState) { st.TotalCores = 5*32 + 31 },
		func(st *persist.FleetState) { dropLastInput(&st.Models[st.Jobs[4].Library[0].Model]) },
	} {
		f.Add(mutateSnapshot(f, real, edit))
	}
	for _, m := range tableMutants {
		f.Add(mutateSnapshot(f, real, m.edit))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := persist.Decode(bytes.NewReader(raw))
		if err != nil {
			return
		}
		fl, err := Restore(st, RestoreOptions{})
		if (err == nil) == (fl == nil) {
			t.Fatalf("Restore returned fleet=%t, err=%v: want exactly one", fl != nil, err)
		}
	})
}

// tableMutants are the ways a well-checksummed snapshot of soakedFleet
// (six table entries) can lie about its model table: a reference outside
// the table at either end, and a job referencing an entry of another
// dimension than its graph. want is part of the error Restore must give.
var tableMutants = []struct {
	want string
	edit func(*persist.FleetState)
}{
	{"references table entry -1, table has 6", func(st *persist.FleetState) { st.Jobs[5].Library[0].Model = -1 }},
	{`restore shared library "wordcount": model at 297500 rps references table entry 6, table has 6`,
		func(st *persist.FleetState) { st.Shared[0].Models[0].Model = len(st.Models) }},
	{`restore job "wordcount-03": model at 339500 rps has 3 inputs, workload has 4 operators`,
		func(st *persist.FleetState) {
			m := st.Models[st.Jobs[2].Library[0].Model]
			m.Inputs = slices.Clone(m.Inputs)
			dropLastInput(&m)
			st.Jobs[2].Library[0].Model = len(st.Models)
			st.Models = append(st.Models, m)
		}},
}

// FuzzRestore's table mutants are refused by name, never restored.
func TestRestoreRefusesBadModelReferences(t *testing.T) {
	_, real := snapshotThroughBytes(t, soakedFleet(t))
	for _, m := range tableMutants {
		st, err := persist.Decode(bytes.NewReader(mutateSnapshot(t, real, m.edit)))
		if err != nil {
			t.Fatal(err)
		}
		fl, err := Restore(st, RestoreOptions{})
		if fl != nil || err == nil || !strings.Contains(err.Error(), m.want) {
			t.Fatalf("restored=%t err=%v, want no fleet and an error containing %q", fl != nil, err, m.want)
		}
	}
}
