package fleet

// Fleet snapshot and restore: the durable control plane's capture and
// rebuild paths. PersistState serializes everything a restore needs —
// per-job control state, model libraries, the shared clock, and each
// job's timer-wheel due time — as plain data (internal/persist types);
// Restore is a deterministic function of that data: workloads, policies,
// and chaos profiles come back through their registries, engines are
// rebuilt fresh at the persisted parallelism/seed/RNG position with the
// schedule shifted onto the original timeline, and the round barrier
// resumes in the persisted submission order. Two fleets restored from
// the same snapshot replay identical decision sequences (the crash-replay
// gate proves it with audit.Diff).

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"autrascale/internal/chaos"
	"autrascale/internal/dataflow"
	"autrascale/internal/gp"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// PersistState captures the fleet as a snapshot document. It holds the
// fleet lock for the duration, but the capture only copies control state
// and walks the libraries' immutable COW snapshots — engines' mutable
// microstate (backlog, machine health) is deliberately excluded, so the
// copy is cheap enough to run between rounds (see persist.Checkpointer).
// Model training data is not copied at all: the returned state shares it
// with the live fleet's immutable models, so it must be treated as
// read-only. Each distinct model gets one slot of the model table, in
// the order the walk first meets it (jobs in submission order, then the
// shared libraries by signature), so the table is a deterministic
// function of the fleet. Drained jobs are omitted: their models already
// live in the shared libraries and their capacity is free.
func (f *Fleet) PersistState() *persist.FleetState {
	f.mu.Lock()
	defer f.mu.Unlock()

	st := &persist.FleetState{
		NowSec:     f.nowSec,
		Rounds:     f.rounds,
		TotalCores: f.cfg.TotalCores,
		RoundSec:   f.cfg.RoundSec,
		Seed:       f.cfg.Seed,
		Chaos:      f.cfg.Chaos.Name,
	}
	// Sized for one private model per job plus every shared entry —
	// about the distinct models once the barrier has published them — so
	// the slot map rarely grows while the capture holds f.mu.
	distinct := len(f.jobs)
	for _, lib := range f.shared {
		distinct += lib.Len()
	}
	tab := newModelTable(distinct)
	// Sized up front: a JobState is ~700 B, and the capture holds f.mu.
	// Grow keeps an empty fleet's lists nil, so they still encode as null.
	st.Jobs = slices.Grow(st.Jobs, len(f.order))
	for _, name := range f.order {
		j := f.jobs[name]
		if j.state == StateDrained {
			continue
		}
		st.Jobs = append(st.Jobs, persistJob(j, tab))
	}
	st.Shared = slices.Grow(st.Shared, len(f.shared))
	for _, sig := range sortedSignatures(f.shared) {
		refs, skipped := tab.refs(f.shared[sig])
		st.Shared = append(st.Shared, persist.SharedLibraryState{
			Signature:    sig,
			Models:       refs,
			SkippedRates: skipped,
		})
	}
	st.Models = tab.models
	return st
}

// persistJob captures one live job, adding its models to the table.
// Caller holds f.mu; the job is not being stepped (captures run between
// rounds).
func persistJob(j *job, tab *modelTable) persist.JobState {
	engineNow := j.engine.Now()
	sched, _ := persist.DescribeSchedule(j.spec.Schedule, engineNow)
	refs, skipped := tab.refs(j.ctl.Library())

	js := persist.JobState{
		Name:            j.spec.Name,
		Workload:        j.spec.Workload.Name,
		Signature:       j.spec.Signature,
		RateRPS:         j.spec.RateRPS,
		TargetLatencyMS: j.spec.TargetLatencyMS,
		Machines:        j.spec.Machines,
		CoresPerMachine: j.spec.CoresPerMachine,
		MemPerMachineMB: j.spec.MemPerMachineMB,
		MaxIterations:   j.spec.MaxIterations,
		Schedule:        sched,
		State:           string(j.state),
		SubmittedAtSec:  j.offsetSec,
		EngineNowSec:    engineNow,
		DueAtSec:        j.offsetSec + engineNow,
		Seed:            j.seed,
		Parallelism:     j.engine.Parallelism(), // already a copy
		Restarts:        j.engine.Restarts(),
		RNGState:        j.engine.RNGState(),
		Controller:      j.ctl.PersistState(),
		Library:         refs,
		LibrarySkipped:  skipped,
		Steps:           j.steps,
		WarmStarted:     j.warmStarted,
		WarmSourceRate:  j.warmSourceRate,
	}
	if j.err != nil {
		js.Error = j.err.Error()
	}
	if len(j.published) > 0 {
		js.PublishedRates = make([]float64, 0, len(j.published))
		for rate := range j.published {
			js.PublishedRates = append(js.PublishedRates, rate)
		}
		sort.Float64s(js.PublishedRates)
	}
	return js
}

// modelTable builds a snapshot's model table. Stored models are
// immutable and shared by pointer (a published or warm-started model is
// the same *gp.Regressor in every library holding it), so the pointer is
// the dedup key: each distinct model gets one slot.
type modelTable struct {
	slot   map[*gp.Regressor]int
	models []persist.ModelState
}

// newModelTable returns an empty table sized for n distinct models.
func newModelTable(n int) *modelTable {
	return &modelTable{slot: make(map[*gp.Regressor]int, n)}
}

// refs serializes a model library as references into the table, adding
// the models it has not seen yet. Models that expose no training data
// are skipped; their rates are returned so the snapshot records exactly
// which models a restore will be missing.
func (t *modelTable) refs(lib *transfer.ModelLibrary) (refs []persist.ModelRef, skipped []float64) {
	entries := lib.Entries()
	for _, e := range entries {
		td, ok := e.Model.(transfer.TrainingData)
		if !ok {
			skipped = append(skipped, e.RateRPS)
			continue
		}
		if refs == nil {
			refs = make([]persist.ModelRef, 0, len(entries))
		}
		refs = append(refs, persist.ModelRef{RateRPS: e.RateRPS, Model: t.slotOf(td)})
	}
	return refs, skipped
}

// slotOf returns the model's table slot, adding the model on first
// sight. A model of another type than transfer.Fit's gets a slot of its
// own.
func (t *modelTable) slotOf(td transfer.TrainingData) int {
	r, ok := td.(*gp.Regressor)
	if ok {
		if slot, seen := t.slot[r]; seen {
			return slot
		}
		t.slot[r] = len(t.models)
	}
	xs, ys := td.TrainingData()
	t.models = append(t.models, persist.ModelState{Inputs: xs, Targets: ys})
	return len(t.models) - 1
}

// RestoreOptions carries the process-local plumbing a snapshot cannot:
// observability sinks and the worker-pool width (neither affects
// decisions).
type RestoreOptions struct {
	// Workers bounds the restored scheduler's pool (default as Config).
	Workers int
	// Store receives metrics (optional).
	Store *metrics.Store
	// Tracer records spans and flight records (optional).
	Tracer *trace.Tracer
}

// Restore rebuilds a fleet from a snapshot. The restore is a pure
// function of the snapshot: engines restart fresh at the persisted
// parallelism, seed, and RNG position with their schedules shifted onto
// the original timeline (backlog is dropped — the SeekToLatest semantics
// every planning session already applies — and machines start healthy,
// with chaos re-derived from the profile name and per-job seeds);
// controllers resume their trigger and SLO positions; each model of the
// table is refitted once and handed to every library that references it,
// rebuilding the sharing the captured fleet had; quarantined jobs come
// back quarantined, holding capacity but never stepped. On any error no
// fleet is returned — there is no partially restored state to clean up.
func Restore(st *persist.FleetState, opts RestoreOptions) (*Fleet, error) {
	if st == nil {
		return nil, errors.New("fleet: nil snapshot")
	}
	profile := chaos.None()
	if st.Chaos != "" {
		p, err := chaos.ByName(st.Chaos)
		if err != nil {
			return nil, fmt.Errorf("fleet: restore: %w", err)
		}
		profile = p
	}
	f, err := New(Config{
		TotalCores: st.TotalCores,
		Workers:    opts.Workers,
		RoundSec:   st.RoundSec,
		Seed:       st.Seed,
		Chaos:      profile,
		Store:      opts.Store,
		Tracer:     opts.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: restore: %w", err)
	}
	f.nowSec = st.NowSec
	f.rounds = st.Rounds

	// The fitted table is local: once every library holds its models, the
	// restored fleet keeps neither it nor the decoded training data.
	models := make([]*gp.Regressor, len(st.Models))
	for i, m := range st.Models {
		if models[i], err = transfer.Fit(m.Inputs, m.Targets); err != nil {
			return nil, fmt.Errorf("fleet: restore: refit model %d: %w", i, err)
		}
	}
	for _, sl := range st.Shared {
		lib, err := restoreLibrary(sl.Models, models)
		if err != nil {
			return nil, fmt.Errorf("fleet: restore shared library %q: %w", sl.Signature, err)
		}
		f.shared[sl.Signature] = lib
	}

	if opts.Store != nil {
		// Restored engines restart their clocks at zero: whatever the
		// store still holds for these jobs is replaced, not appended to.
		names := make([]string, len(st.Jobs))
		for i := range st.Jobs {
			names[i] = st.Jobs[i].Name
		}
		opts.Store.DropTagged("job", names...)
	}
	for i := range st.Jobs {
		if err := f.restoreJob(&st.Jobs[i], models); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// restoreJob readmits one job into the next submission slot: the same
// validate → admissible → build → register path as Submit, fed from the
// snapshot instead of defaults and derivations, plus the position only a
// snapshot knows. models is the refitted model table. Caller owns f
// exclusively (restore runs before the fleet is shared).
func (f *Fleet) restoreJob(js *persist.JobState, models []*gp.Regressor) error {
	fail := func(err error) error {
		return fmt.Errorf("fleet: restore job %q: %w", js.Name, err)
	}
	state := State(js.State)
	if state != StateRunning && state != StateQuarantined {
		return fail(fmt.Errorf("unknown job state %q", js.State))
	}
	spec, err := restoreSpec(js)
	if err != nil {
		return fail(err)
	}
	if err := spec.validate(); err != nil {
		return fail(err)
	}
	if err := f.admissible(&spec); err != nil {
		return fail(err)
	}
	lib, err := restoreLibrary(js.Library, models)
	if err != nil {
		return fail(err)
	}
	// Non-nil even when empty: a snapshot without a parallelism vector is
	// an error for the engine to name, not a request for the default.
	par := append(dataflow.ParallelismVector{}, js.Parallelism...)
	j, err := f.build(spec, js.Seed, lib, par)
	if err != nil {
		return fail(err)
	}
	// A model of any other shape would crash the job's first Algorithm 2.
	// Fit succeeded, so every model has inputs, all of one dimension.
	ops := j.engine.Graph().NumOperators()
	for _, e := range lib.Entries() {
		if d := inputDim(e.Model); d != ops {
			return fail(fmt.Errorf("model at %v rps has %d inputs, workload has %d operators", e.RateRPS, d, ops))
		}
	}
	j.engine.RestoreRNGState(js.RNGState)
	j.engine.RestoreRestarts(js.Restarts)
	// SLO timestamps were captured in the old engine clock; the rebuilt
	// engine restarts at zero.
	ctlState := js.Controller
	ctlState.SLO = ctlState.SLO.Shifted(-js.EngineNowSec)
	j.ctl.RestoreState(ctlState)

	j.state = state
	if js.Error != "" {
		j.err = errors.New(js.Error)
	}
	// The rebuilt engine's clock restarts at zero, so the job's time
	// origin moves to its persisted due time; the schedule's ShiftSec
	// keeps the input rate a function of the original timeline.
	j.offsetSec = js.DueAtSec
	j.steps = js.Steps
	j.warmStarted, j.warmSourceRate = js.WarmStarted, js.WarmSourceRate
	for _, rate := range js.PublishedRates {
		j.published[rate] = true
	}
	f.register(j)
	return nil
}

// restoreSpec resolves a persisted job back into the spec it was
// admitted with: workload and policy through their registries, the
// schedule from its descriptor, every other field as captured.
func restoreSpec(js *persist.JobState) (JobSpec, error) {
	spec := JobSpec{
		Name:            js.Name,
		RateRPS:         js.RateRPS,
		TargetLatencyMS: js.TargetLatencyMS,
		Machines:        js.Machines,
		CoresPerMachine: js.CoresPerMachine,
		MemPerMachineMB: js.MemPerMachineMB,
		MaxIterations:   js.MaxIterations,
		Signature:       js.Signature,
	}
	var ok bool
	if spec.Workload, ok = workloads.ByName(js.Workload); !ok {
		return spec, fmt.Errorf("unknown workload %q (have %v)", js.Workload, workloads.Names())
	}
	var err error
	if spec.Schedule, err = persist.BuildSchedule(js.Schedule); err != nil {
		return spec, err
	}
	// The legacy empty name takes the controller's default planner. So
	// does a quarantined job: its policy is never stepped again, and an
	// inert default beats failing the whole restore on a name the
	// registry may have dropped.
	if name := js.Controller.PolicyName; name != "" && State(js.State) == StateRunning {
		build, err := policy.Lookup(name)
		if err != nil {
			return spec, err
		}
		spec.Policy = build
	}
	return spec, nil
}

// restoreLibrary rebuilds a library from its references into the
// refitted model table, storing every model in one write.
func restoreLibrary(refs []persist.ModelRef, models []*gp.Regressor) (*transfer.ModelLibrary, error) {
	entries := make([]transfer.Entry, len(refs))
	for i, r := range refs {
		if r.Model < 0 || r.Model >= len(models) {
			return nil, fmt.Errorf("model at %v rps references table entry %d, table has %d", r.RateRPS, r.Model, len(models))
		}
		entries[i] = transfer.Entry{RateRPS: r.RateRPS, Model: models[r.Model]}
	}
	lib := transfer.NewModelLibrary()
	if err := lib.PutAll(entries); err != nil {
		return nil, err
	}
	return lib, nil
}
