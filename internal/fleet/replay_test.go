package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"autrascale/internal/audit"
	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/kafka"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// Snapshot/restore tests use registry workloads (not the lat-chain test
// fixture): a snapshot persists workloads by name, so restores only work
// for workloads the registry can resolve — exactly the production
// constraint.
func replayJob(t *testing.T, name string, rate float64) JobSpec {
	t.Helper()
	spec, ok := workloads.ByName("wordcount")
	if !ok {
		t.Fatal("wordcount not in the workload registry")
	}
	return JobSpec{Name: name, Workload: spec, RateRPS: rate}
}

// snapshotThroughBytes round-trips a fleet's state through the real
// on-disk format, so every restore in these tests exercises the
// envelope, checksum, and JSON payload — not just in-memory structs.
func snapshotThroughBytes(t testing.TB, f *Fleet) (*persist.FleetState, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.Encode(&buf, f.PersistState()); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return st, buf.Bytes()
}

// A restored fleet reproduces the snapshot's control surface: clock,
// jobs, capacity, libraries, and per-job engine position — and keeps
// running from there.
func TestFleetRestoreRoundTrip(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	stepper := replayJob(t, "stepper", 300e3)
	stepper.Schedule = kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 300e3}, {FromSec: 2100, Rate: 380e3},
	}}
	for _, spec := range []JobSpec{
		replayJob(t, "wc-a", 320e3),
		replayJob(t, "wc-b", 350e3),
		stepper,
	} {
		if err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(900)

	st, _ := snapshotThroughBytes(t, f)
	restored, err := Restore(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.Now(), f.Now(); got != want {
		t.Fatalf("restored clock = %v, want %v", got, want)
	}
	a, b := f.Snapshot(), restored.Snapshot()
	if a.Jobs != b.Jobs || a.UsedCores != b.UsedCores || a.Rounds != b.Rounds {
		t.Fatalf("restored status = %+v, want %+v", b, a)
	}
	if got, want := restored.JobNames(), f.JobNames(); len(got) != len(want) {
		t.Fatalf("restored jobs %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("restored job order %v, want %v", got, want)
			}
		}
	}

	// Per-job control state survives byte-for-byte where it should: the
	// restored snapshot differs only in the clock linkage fields that the
	// rebuilt engine re-anchors (EngineNowSec restarts at zero; the
	// schedule's shift absorbs it).
	rst := restored.PersistState()
	for i, js := range st.Jobs {
		rjs := rst.Jobs[i]
		if rjs.Name != js.Name || rjs.State != js.State || rjs.Workload != js.Workload {
			t.Fatalf("job %d identity drifted: %+v vs %+v", i, rjs, js)
		}
		if rjs.EngineNowSec != 0 {
			t.Fatalf("job %s restored engine clock = %v, want 0", js.Name, rjs.EngineNowSec)
		}
		if rjs.DueAtSec != js.DueAtSec {
			t.Fatalf("job %s due time = %v, want %v", js.Name, rjs.DueAtSec, js.DueAtSec)
		}
		if rjs.Seed != js.Seed || rjs.RNGState != js.RNGState || rjs.Restarts != js.Restarts {
			t.Fatalf("job %s engine state drifted", js.Name)
		}
		if len(rjs.Parallelism) != len(js.Parallelism) {
			t.Fatalf("job %s parallelism %v, want %v", js.Name, rjs.Parallelism, js.Parallelism)
		}
		for k := range js.Parallelism {
			if rjs.Parallelism[k] != js.Parallelism[k] {
				t.Fatalf("job %s parallelism %v, want %v", js.Name, rjs.Parallelism, js.Parallelism)
			}
		}
		if rjs.Controller.CurRate != js.Controller.CurRate ||
			rjs.Controller.RateEWMAValue != js.Controller.RateEWMAValue ||
			rjs.Controller.PolicyName != js.Controller.PolicyName {
			t.Fatalf("job %s controller state drifted: %+v vs %+v", js.Name, rjs.Controller, js.Controller)
		}
		if len(rjs.Library) != len(js.Library) {
			t.Fatalf("job %s library %d models, want %d", js.Name, len(rjs.Library), len(js.Library))
		}
		// The schedule answers for the original timeline: the restored
		// job's t=0 is the original job's capture time.
		orig, err := persist.BuildSchedule(js.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := persist.BuildSchedule(rjs.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range []float64{0, 60, 1500, 3000} {
			if got, want := rebuilt.RateAt(sec), orig.RateAt(sec); got != want {
				t.Fatalf("job %s schedule RateAt(%v) = %v, want %v", js.Name, sec, got, want)
			}
		}
	}
	if len(rst.Shared) != len(st.Shared) {
		t.Fatalf("restored %d shared libraries, want %d", len(rst.Shared), len(st.Shared))
	}
	for i, sl := range st.Shared {
		if rst.Shared[i].Signature != sl.Signature || len(rst.Shared[i].Models) != len(sl.Models) {
			t.Fatalf("shared library %q drifted", sl.Signature)
		}
	}

	// And the restored fleet is alive: it keeps stepping without error.
	restored.RunUntil(restored.Now() + 300)
	jobs, _ := restored.JobsPage(0, 0)
	for _, j := range jobs {
		if j.State != StateRunning {
			t.Fatalf("job %s state after restore+run = %v (err=%q)", j.Name, j.State, j.Error)
		}
	}
}

// The crash-replay gate: kill a fleet mid-soak under heavy chaos,
// restore the snapshot twice, and the two restored fleets replay an
// identical decision sequence — audit.Diff-clean flight journals even at
// different worker counts — with warm-started replans (Algorithm 2 in a
// handful of real trials), never a cold Algorithm 1.
func TestCrashReplayDeterministic(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 42, Chaos: chaos.Heavy()})
	if err != nil {
		t.Fatal(err)
	}
	stepper := replayJob(t, "stepper", 300e3)
	// The rate steps after the snapshot point, so the restored fleets —
	// not the original — face the replan.
	stepper.Schedule = kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 300e3}, {FromSec: 2100, Rate: 380e3},
	}}
	for _, spec := range []JobSpec{
		replayJob(t, "wc-a", 320e3),
		replayJob(t, "wc-b", 350e3),
		stepper,
	} {
		if err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(1800) // "crash" here: the fleet object is abandoned

	st, _ := snapshotThroughBytes(t, f)
	for _, js := range st.Jobs {
		if js.State == string(StateRunning) && len(js.Library) == 0 {
			t.Fatalf("job %s reached the snapshot with no fitted models — the warm-replan premise is gone", js.Name)
		}
	}

	restoreAndRun := func(workers int) (*Fleet, *trace.FlightRecorder) {
		t.Helper()
		// Decode from the same snapshot value; Restore must not mutate it.
		tracer := trace.New(0)
		rec := trace.NewFlightRecorder(0)
		tracer.AttachFlight(rec)
		fl, err := Restore(st, RestoreOptions{Workers: workers, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		fl.RunUntil(3600)
		return fl, rec
	}
	flA, recA := restoreAndRun(1)
	flB, recB := restoreAndRun(4)

	ja, err := audit.FromRecords(recA.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := audit.FromRecords(recB.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if ja.MissingRecords() != 0 || len(ja.Records) == 0 {
		t.Fatalf("journal a: %d records, %d missing", len(ja.Records), ja.MissingRecords())
	}
	res := audit.Diff(ja, jb)
	if !res.Identical {
		t.Fatalf("restored runs diverged:\n%s", res.Render())
	}

	// Warm replans: every post-restore rate-change replan transfers
	// (Algorithm 2) off the restored library in a handful of real trials.
	// No job ever plans cold — "no prior model" is the Algorithm 1 cold
	// path a lost library would force. (QoS-triggered replans are
	// Algorithm 1 by the paper's design and are equally allowed in an
	// uninterrupted run, so they don't count against the restore.)
	for _, fl := range []*Fleet{flA, flB} {
		sawTransfer := false
		for _, name := range fl.JobNames() {
			decisions, err := fl.Decisions(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions {
				if strings.Contains(d.Reason, "no prior model") {
					t.Fatalf("job %s replanned cold after restore: %+v", name, d)
				}
				if d.Action == core.ActionAlgorithm2 {
					sawTransfer = true
					if d.Trials > 3 {
						t.Fatalf("job %s transfer replan took %d real runs, want <= 3", name, d.Trials)
					}
				}
			}
		}
		if !sawTransfer {
			t.Fatal("no post-restore transfer replan observed — the step never triggered")
		}
	}
}

// A version 1 snapshot restores exactly as its version 2 re-encoding
// does: audit.Diff-identical journals over the same rounds. The fixture
// is soakedFleet, written by the last version 1 build. Its jobs hold
// steady, so a late job with a rate step joins each restored fleet: it
// warm-starts from the restored shared library and replans off it, which
// puts the refitted models' predictions into the journal.
func TestRestoreVersion1Fixture(t *testing.T) {
	v1, err := persist.ReadFile("../persist/testdata/soaked_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.Encode(&buf, v1); err != nil {
		t.Fatal(err)
	}
	v2, err := persist.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	journal := func(st *persist.FleetState) *audit.Journal {
		t.Helper()
		tracer := trace.New(0)
		rec := trace.NewFlightRecorder(0)
		tracer.AttachFlight(rec)
		st.TotalCores += 32
		fl, err := Restore(st, RestoreOptions{Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		late := replayJob(t, "late", 330e3)
		late.Schedule = kafka.StepSchedule{Steps: []kafka.Step{{FromSec: 0, Rate: 330e3}, {FromSec: 1800, Rate: 390e3}}}
		if err := fl.Submit(late); err != nil {
			t.Fatal(err)
		}
		fl.RunUntil(7200)
		ds, err := fl.Decisions("late")
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) < 2 || ds[0].Action != core.ActionAlgorithm2 {
			t.Fatalf("late job: %d decisions, first %+v; want a warm plan and a replan", len(ds), ds)
		}
		j, err := audit.FromRecords(rec.Snapshot(0))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := journal(v1), journal(v2)
	if len(a.Records) == 0 || a.MissingRecords() != 0 {
		t.Fatalf("version 1 journal: %d records, %d missing", len(a.Records), a.MissingRecords())
	}
	if res := audit.Diff(a, b); !res.Identical {
		t.Fatalf("version 1 and its re-encoding replayed differently:\n%s", res.Render())
	}
}

// A quarantined job restores as quarantined: capacity held, never
// stepped, error preserved — even though its (custom) policy is not in
// the registry.
func TestRestoreQuarantined(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	doomed := replayJob(t, "doomed", 320e3)
	doomed.Policy = func(env PolicyEnv) (core.Policy, error) {
		return failingPolicy{}, nil
	}
	if err := f.Submit(doomed); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "steady", 350e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(600)

	st, _ := snapshotThroughBytes(t, f)
	var doomedState string
	for _, js := range st.Jobs {
		if js.Name == "doomed" {
			doomedState = js.State
		}
	}
	if doomedState != string(StateQuarantined) {
		t.Fatalf("doomed job persisted as %q, want quarantined", doomedState)
	}

	restored, err := Restore(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := restored.Snapshot().UsedCores
	// Planning sessions burn simulated time, so a restored job may not be
	// due until well past the capture-time clock; run past every due time.
	maxDue := restored.Now()
	for _, js := range st.Jobs {
		if js.DueAtSec > maxDue {
			maxDue = js.DueAtSec
		}
	}
	restored.RunUntil(maxDue + 300)

	jobs, _ := restored.JobsPage(0, 0)
	byName := map[string]JobStatus{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	if byName["doomed"].State != StateQuarantined {
		t.Fatalf("doomed restored as %v, want quarantined", byName["doomed"].State)
	}
	if !strings.Contains(byName["doomed"].Error, "policy exploded") {
		t.Fatalf("quarantine error %q lost across restore", byName["doomed"].Error)
	}
	if byName["doomed"].SimulatedSec != 0 {
		t.Fatalf("quarantined job was stepped after restore (%.0fs)", byName["doomed"].SimulatedSec)
	}
	if byName["steady"].State != StateRunning || byName["steady"].SimulatedSec == 0 {
		t.Fatalf("steady job did not resume: %+v", byName["steady"])
	}
	if got := restored.Snapshot().UsedCores; got != before {
		t.Fatalf("quarantined job leaked capacity: %d -> %d", before, got)
	}
	h := restored.HealthSnapshot()
	if h.Quarantined != 1 {
		t.Fatalf("health aggregate quarantined = %d, want 1", h.Quarantined)
	}
}

// Drained jobs are absent from snapshots: their capacity is free and
// their models live on only in the shared library.
func TestRestoreDrainedAbsent(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "keeper", 320e3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "goner", 350e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(600)
	if err := f.Drain("goner"); err != nil {
		t.Fatal(err)
	}

	st, _ := snapshotThroughBytes(t, f)
	if len(st.Jobs) != 1 || st.Jobs[0].Name != "keeper" {
		t.Fatalf("snapshot jobs = %+v, want only keeper", st.Jobs)
	}
	if len(st.Shared) == 0 {
		t.Fatal("drained job's published models missing from the shared library")
	}

	restored, err := Restore(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := restored.JobNames()
	if len(names) != 1 || names[0] != "keeper" {
		t.Fatalf("restored jobs %v, want [keeper]", names)
	}
	if got, want := restored.Snapshot().UsedCores, 32; got != want {
		t.Fatalf("restored UsedCores = %d, want %d (drained job's cores stay free)", got, want)
	}
}

// Corrupt or inconsistent snapshots fail cleanly: a sentinel error and
// no partially restored fleet.
func TestRestoreCorruptSnapshot(t *testing.T) {
	f, err := New(Config{TotalCores: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "solo", 320e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(300)
	st, raw := snapshotThroughBytes(t, f)

	// Bit rot inside the payload surfaces as ErrChecksum.
	corrupted := bytes.Replace(raw, []byte(`"solo"`), []byte(`"sol0"`), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption target not found")
	}
	if _, err := persist.Decode(bytes.NewReader(corrupted)); !errors.Is(err, persist.ErrChecksum) {
		t.Fatalf("corrupted snapshot: err = %v, want ErrChecksum", err)
	}
	// Truncation never decodes.
	if _, err := persist.Decode(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated snapshot decoded")
	}

	// Registry misses fail the restore with no fleet returned.
	unknown := *st
	unknown.Jobs = append([]persist.JobState(nil), st.Jobs...)
	unknown.Jobs[0].Workload = "no-such-workload"
	if fl, err := Restore(&unknown, RestoreOptions{}); err == nil || fl != nil {
		t.Fatalf("unknown workload: fleet=%v err=%v, want nil fleet + error", fl, err)
	}
	unknown.Jobs[0].Workload = st.Jobs[0].Workload
	unknown.Jobs[0].Controller.PolicyName = "no-such-policy"
	_, lookupErr := policy.Lookup("no-such-policy")
	fl, err := Restore(&unknown, RestoreOptions{})
	if want := `fleet: restore job "solo": ` + lookupErr.Error(); fl != nil || err == nil || err.Error() != want {
		t.Fatalf("unknown policy: fleet=%v err=%v, want nil fleet and %q", fl, err, want)
	}
	if _, err := Restore(nil, RestoreOptions{}); err == nil {
		t.Fatal("nil snapshot restored")
	}
}

// Restore runs the spec validation Submit runs. A snapshot carries
// post-default values, so a field Submit would have defaulted is
// corruption here: the restore names the job and the field and returns
// no fleet — it neither fills the value in nor panics sizing a cluster
// with it (machines: -1 used to end in makeslice).
func TestRestoreRejectsInvalidSpec(t *testing.T) {
	f, err := New(Config{TotalCores: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "solo", 320e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(300)
	st, _ := snapshotThroughBytes(t, f)

	for _, tc := range []struct {
		field  string
		mutate func(*persist.JobState)
	}{
		{"machines", func(js *persist.JobState) { js.Machines = -1 }},
		{"machines", func(js *persist.JobState) { js.Machines = 0 }},
		{"cores_per_machine", func(js *persist.JobState) { js.CoresPerMachine = 0 }},
		{"mem_per_machine_mb", func(js *persist.JobState) { js.MemPerMachineMB = -65536 }},
		{"max_iterations", func(js *persist.JobState) { js.MaxIterations = 0 }},
		{"target_latency_ms", func(js *persist.JobState) { js.TargetLatencyMS = 0 }},
		{"needs a name", func(js *persist.JobState) { js.Name = "" }},
		{"name must not contain", func(js *persist.JobState) { js.Name = "solo,operator=mid" }},
		// Factors whose product overflows to 0 must not slip past the budget.
		{"admission rejected", func(js *persist.JobState) { js.Machines, js.CoresPerMachine = 1<<62, 4 }},
	} {
		bad := *st
		bad.Jobs = append([]persist.JobState(nil), st.Jobs...)
		tc.mutate(&bad.Jobs[0])
		fl, err := Restore(&bad, RestoreOptions{})
		if err == nil || fl != nil {
			t.Fatalf("%s: restored=%t err=%v, want no fleet and an error", tc.field, fl != nil, err)
		}
		prefix := fmt.Sprintf("fleet: restore job %q: ", bad.Jobs[0].Name)
		if msg := err.Error(); !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, tc.field) {
			t.Fatalf("err = %q, want prefix %q naming %q", msg, prefix, tc.field)
		}
	}
	// The untouched snapshot still restores: the table failed on its
	// mutations, not on the fixture.
	if _, err := Restore(st, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
}

// A snapshot whose parallelism vector does not cover the job's graph —
// well-formed, checksummed, just wrong — fails the restore, naming the
// job. It must not build a fleet that panics in a round worker on the
// job's first tick.
func TestRestoreWrongLengthParallelism(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"intact", "mangled"} {
		if err := f.Submit(replayJob(t, name, 320e3)); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(300)
	st, _ := snapshotThroughBytes(t, f)
	good := st.Jobs[1].Parallelism
	for _, par := range [][]int{good[:len(good)-1], append(append([]int(nil), good...), 1), {}} {
		bad := *st
		bad.Jobs = append([]persist.JobState(nil), st.Jobs...)
		bad.Jobs[1].Parallelism = par
		fl, err := Restore(&bad, RestoreOptions{})
		if err == nil || fl != nil {
			t.Fatalf("parallelism %v: restored=%t err=%v, want no fleet and an error", par, fl != nil, err)
		}
		want := fmt.Sprintf("parallelism has %d entries, graph has %d operators", len(par), len(good))
		if msg := err.Error(); !strings.Contains(msg, `"mangled"`) || !strings.Contains(msg, want) {
			t.Fatalf("parallelism %v: err = %q, want the job name and %q", par, msg, want)
		}
	}
}

// opaqueModel predicts but exposes no training data.
type opaqueModel struct{}

func (opaqueModel) PredictMean([]float64) float64 { return 1 }

// A model that exposes no training data cannot be refitted on restore:
// the snapshot must leave it out and name its rate, not drop it silently.
func TestLibraryStateSkipsOpaqueModels(t *testing.T) {
	model, err := transfer.Fit([][]float64{{1}, {2}, {3}}, []float64{0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	lib := transfer.NewModelLibrary()
	if err := lib.Put(500, opaqueModel{}); err != nil {
		t.Fatal(err)
	}
	if err := lib.Put(1000, model); err != nil {
		t.Fatal(err)
	}
	tab := newModelTable(0)
	refs, skipped := tab.refs(lib)
	if len(skipped) != 1 || skipped[0] != 500 {
		t.Fatalf("skipped = %v, want the opaque model's rate [500]", skipped)
	}
	if len(refs) != 1 || refs[0].RateRPS != 1000 || len(tab.models) != 1 || len(tab.models[refs[0].Model].Inputs) != 3 {
		t.Fatalf("refs = %+v, table %+v, want the one persistable model at 1000 rps", refs, tab.models)
	}
}
