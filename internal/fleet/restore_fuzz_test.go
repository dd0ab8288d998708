package fleet

import (
	"bytes"
	"reflect"
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
// can lie about a job — runs under plain `go test`.
func FuzzRestore(f *testing.F) {
	_, real := snapshotThroughBytes(f, soakedFleet(f))
	f.Add(real)
	for _, edit := range []func(*persist.FleetState){
		func(st *persist.FleetState) { st.Jobs[0].Machines = -1 },
		func(st *persist.FleetState) { st.Jobs[1].Controller.PolicyName = "no-such-policy" },
		func(st *persist.FleetState) { st.Jobs[2].Workload = "no-such-workload" },
		func(st *persist.FleetState) { st.Jobs[3].Name = st.Jobs[0].Name },
		func(st *persist.FleetState) { st.TotalCores = 5*32 + 31 },
		func(st *persist.FleetState) { dropLastInput(&st.Jobs[4].Library[0]) },
	} {
		f.Add(mutateSnapshot(f, real, edit))
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
