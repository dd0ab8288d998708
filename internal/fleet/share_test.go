package fleet

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"autrascale/internal/kafka"
	"autrascale/internal/persist"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// One fitted model, shared by pointer: the barrier publishes the job's own
// model into the shared library, and a warm start hands the new job the
// shared entry itself — no refit, no copy.
func TestModelsAreSharedByPointer(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "cold", 1500)); err != nil {
		t.Fatal(err)
	}
	f.Round()
	shared := f.shared["lat-chain"]
	own := f.jobs["cold"].ctl.Library().Entries()
	if len(own) == 0 {
		t.Fatal("cold job fitted no model")
	}
	for _, e := range own {
		if got, ok := shared.Nearest(e.RateRPS); !ok || got.RateRPS != e.RateRPS || got.Model != e.Model {
			t.Fatalf("shared entry at %v rps is not the publishing job's model", e.RateRPS)
		}
	}

	if err := f.Submit(testJob(t, "warm", 1700)); err != nil {
		t.Fatal(err)
	}
	warm := f.jobs["warm"]
	if !warm.warmStarted {
		t.Fatal("second job did not warm-start")
	}
	got, ok := warm.ctl.Library().Nearest(warm.warmSourceRate)
	want, _ := shared.Nearest(warm.warmSourceRate)
	if !ok || got.RateRPS != warm.warmSourceRate || got.Model != want.Model {
		t.Fatalf("warm job's model at the donor rate %v is not the shared entry", warm.warmSourceRate)
	}
}

// Every engine the fleet builds or restores runs on its workload's one
// graph: a job holds no graph of its own.
func TestJobsShareTheWorkloadGraph(t *testing.T) {
	f, err := New(Config{TotalCores: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	specs := append(StaggeredJobs(workloads.WordCount(), 3, 0), StaggeredJobs(workloads.NexmarkQ5(), 2, 0)...)
	for _, js := range specs {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	check := func(which string, fl *Fleet) {
		t.Helper()
		for _, name := range fl.order {
			j := fl.jobs[name]
			spec, ok := workloads.ByName(j.spec.Workload.Name)
			if !ok {
				t.Fatalf("%s job %s: unknown workload %q", which, name, j.spec.Workload.Name)
			}
			if j.engine.Graph() != spec.Graph {
				t.Fatalf("%s job %s runs on its own copy of the %s graph", which, name, spec.Name)
			}
		}
	}
	check("submitted", f)
	st, _ := snapshotThroughBytes(t, f)
	restored := restoreOK(t, st)
	if len(restored.order) != len(specs) {
		t.Fatalf("restored %d jobs, want %d", len(restored.order), len(specs))
	}
	check("restored", restored)
}

// Restore rebuilds the sharing the captured fleet had: library entries
// that held one model at capture hold one model after restore, entries
// that held different models still do, and each table entry became
// exactly one fitted model.
func TestRestoredModelsAreSharedByPointer(t *testing.T) {
	live := soakedFleet(t)
	st, _ := snapshotThroughBytes(t, live)
	before, after := libraryModels(live), libraryModels(restoreOK(t, st))
	if len(before) != len(after) {
		t.Fatalf("%d library entries restored as %d", len(before), len(after))
	}
	to := map[transfer.Predictor]transfer.Predictor{}
	from := map[transfer.Predictor]transfer.Predictor{}
	shared := 0
	for i, m := range before {
		if want, seen := to[m]; seen {
			if after[i] != want {
				t.Fatalf("entry %d shared a model at capture but holds its own after restore", i)
			}
			shared++
			continue
		}
		if _, seen := from[after[i]]; seen {
			t.Fatalf("entry %d held its own model at capture but shares one after restore", i)
		}
		to[m], from[after[i]] = after[i], m
	}
	if shared == 0 {
		t.Fatal("the fixture shares no model: nothing to prove")
	}
	if len(from) != len(st.Models) {
		t.Fatalf("restore built %d models from a table of %d", len(from), len(st.Models))
	}
}

// libraryModels lists every library entry's model, jobs in submission
// order, then the shared libraries by signature.
func libraryModels(f *Fleet) []transfer.Predictor {
	var out []transfer.Predictor
	for _, name := range f.order {
		for _, e := range f.jobs[name].ctl.Library().Entries() {
			out = append(out, e.Model)
		}
	}
	for _, sig := range sortedSignatures(f.shared) {
		for _, e := range f.shared[sig].Entries() {
			out = append(out, e.Model)
		}
	}
	return out
}

// Signature is free text, so a job can name another workload's library.
// A donor of another input dimension must not be transferred: a 3-operator
// Nexmark job fed WordCount's 4-input model used to panic its round worker
// (mat: SqDist length mismatch) and take the process down, and a
// 5-operator Yahoo job silently transferred from the wrong-shaped model.
// Each now starts cold, and its warm-start span says so.
func TestBorrowedSignatureStartsCold(t *testing.T) {
	for _, w := range []workloads.Spec{workloads.NexmarkQ5(), workloads.NexmarkQ11(), workloads.Yahoo()} {
		t.Run(w.Name, func(t *testing.T) {
			tracer := trace.New(0)
			f, err := New(Config{TotalCores: 128, Seed: 5, Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Submit(JobSpec{Name: "donor", Workload: workloads.WordCount()}); err != nil {
				t.Fatal(err)
			}
			f.RunUntil(1800)
			if len(f.SharedModelRates()["wordcount"]) == 0 {
				t.Fatal("donor published no model")
			}
			var donorSpans uint64 // span ids run up: the borrower's come after
			for _, sp := range tracer.Snapshot(0) {
				donorSpans = max(donorSpans, sp.ID)
			}
			if err := f.Submit(JobSpec{Name: "borrower", Workload: w, Signature: "wordcount"}); err != nil {
				t.Fatal(err)
			}
			var sawSpan bool
			for _, sp := range tracer.Snapshot(0) {
				if sp.ID <= donorSpans || sp.Name != "fleet.warmstart" {
					continue
				}
				sawSpan = true
				for _, a := range sp.Attrs {
					if a.Key == "ok" && a.Value() != false {
						t.Fatalf("warm-start span records ok=%v for a wrong-shaped donor", a.Value())
					}
				}
			}
			if !sawSpan {
				t.Fatal("no fleet.warmstart span for the borrower")
			}
			f.RunUntil(3600)

			page, _ := f.JobsPage(1, 1)
			if st := page[0]; st.State != StateRunning || st.WarmStarted {
				t.Fatalf("borrower: state %v, warm-started %t (err %q); want running and cold", st.State, st.WarmStarted, st.Error)
			}
			decisions, err := f.Decisions("borrower")
			if err != nil {
				t.Fatal(err)
			}
			if len(decisions) == 0 || decisions[0].Action != "algorithm1" {
				t.Fatalf("borrower's first plan = %+v, want a cold algorithm1", decisions)
			}
		})
	}
}

// A well-checksummed snapshot whose job-library model has another input
// dimension than the job's graph used to restore and then panic in the
// job's first Algorithm 2. Restore refuses it, naming job, rate and shapes.
func TestRestoreRefusesWrongDimensionModel(t *testing.T) {
	f, err := New(Config{TotalCores: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "solo", 320e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(300)
	st, _ := snapshotThroughBytes(t, f)
	if len(st.Jobs[0].Library) == 0 {
		t.Fatal("fixture job has no model to mangle")
	}
	ref := st.Jobs[0].Library[0]
	dropLastInput(&st.Models[ref.Model])
	fl, err := Restore(st, RestoreOptions{})
	want := fmt.Sprintf(`fleet: restore job "solo": model at %v rps has 3 inputs, workload has 4 operators`, ref.RateRPS)
	if fl != nil || err == nil || err.Error() != want {
		t.Fatalf("restored=%t err=%v, want no fleet and %q", fl != nil, err, want)
	}
}

// dropLastInput removes the last coordinate of every training input: the
// model now has one input fewer than the job has operators.
func dropLastInput(m *persist.ModelState) {
	for i, x := range m.Inputs {
		m.Inputs[i] = x[:len(x)-1]
	}
}

// pinnedModel is a deep copy of one shared model's training data and its
// predictions at fixed probes, taken before a soak.
type pinnedModel struct {
	rate  float64
	model transfer.Predictor
	xs    [][]float64
	ys    []float64
	means []uint64
}

var shareProbes = [][]float64{{1, 1, 1}, {2, 5, 3}, {4, 12, 6}, {8, 20, 10}}

func pinLibrary(t *testing.T, lib *transfer.ModelLibrary) []pinnedModel {
	t.Helper()
	var out []pinnedModel
	for _, e := range lib.Entries() {
		xs, ys := e.Model.(transfer.TrainingData).TrainingData()
		p := pinnedModel{rate: e.RateRPS, model: e.Model, ys: append([]float64(nil), ys...)}
		for _, x := range xs {
			p.xs = append(p.xs, append([]float64(nil), x...))
		}
		for _, x := range shareProbes {
			p.means = append(p.means, math.Float64bits(e.Model.PredictMean(x)))
		}
		out = append(out, p)
	}
	return out
}

// No code path mutates a shared model. Sixteen jobs warm-start from one
// donor pointer and step in parallel through rate changes (every one runs
// Algorithm 2 against the shared model, and their own models join the
// library), while a checkpointer captures and encodes the fleet each round
// in the background. Afterwards every model pinned before or during the
// soak holds the same training data and predicts the same bits. Under
// -race (make race includes this package) it is also the proof that
// sharing needs no locks.
func TestSharedModelsImmutableUnderSoak(t *testing.T) {
	f, err := New(Config{TotalCores: 40 * 32, Workers: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "donor", 1500)); err != nil {
		t.Fatal(err)
	}
	f.Round()
	pins := pinLibrary(t, f.shared["lat-chain"])
	if len(pins) == 0 {
		t.Fatal("donor published no model")
	}

	for i := 0; i < 16; i++ {
		spec := testJob(t, fmt.Sprintf("warm-%02d", i), 1400+float64(i)*15)
		spec.Schedule = kafka.StepSchedule{Steps: []kafka.Step{
			{FromSec: 0, Rate: spec.RateRPS}, {FromSec: 900, Rate: spec.RateRPS * 1.2},
			{FromSec: 1800, Rate: spec.RateRPS * 0.9},
		}}
		if err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if !f.jobs[spec.Name].warmStarted {
			t.Fatalf("%s did not warm-start", spec.Name)
		}
	}
	ck, err := persist.NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.json"), 1, f.PersistState)
	if err != nil {
		t.Fatal(err)
	}
	for f.Now() < 3600 {
		f.Round()
		ck.Tick()
		if f.Now() == 1800 {
			pins = append(pins, pinLibrary(t, f.shared["lat-chain"])...)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range f.JobNames()[1:] {
		ds, err := f.Decisions(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) < 2 || ds[0].Action != "algorithm2" {
			t.Fatalf("%s: %d decisions, first %+v; want a warm plan and a rate-change replan", name, len(ds), ds)
		}
	}

	for _, p := range pins {
		xs, ys := p.model.(transfer.TrainingData).TrainingData()
		if !reflect.DeepEqual(xs, p.xs) || !reflect.DeepEqual(ys, p.ys) {
			t.Fatalf("model at %v rps: training data changed during the soak", p.rate)
		}
		for i, x := range shareProbes {
			if got := math.Float64bits(p.model.PredictMean(x)); got != p.means[i] {
				t.Fatalf("model at %v rps predicts %v at %v after the soak, %v before",
					p.rate, math.Float64frombits(got), x, math.Float64frombits(p.means[i]))
			}
		}
	}
}
