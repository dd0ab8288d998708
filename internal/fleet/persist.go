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
// read-only. Drained jobs are omitted: their models already live in the
// shared libraries and their capacity is free.
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
	// Sized up front: a JobState is ~700 B, and the capture holds f.mu.
	// Grow keeps an empty fleet's lists nil, so they still encode as null.
	st.Jobs = slices.Grow(st.Jobs, len(f.order))
	for _, name := range f.order {
		j := f.jobs[name]
		if j.state == StateDrained {
			continue
		}
		st.Jobs = append(st.Jobs, persistJob(j))
	}
	st.Shared = slices.Grow(st.Shared, len(f.shared))
	for _, sig := range sortedSignatures(f.shared) {
		models, skipped := libraryState(f.shared[sig])
		st.Shared = append(st.Shared, persist.SharedLibraryState{
			Signature:    sig,
			Models:       models,
			SkippedRates: skipped,
		})
	}
	return st
}

// persistJob captures one live job. Caller holds f.mu; the job is not
// being stepped (captures run between rounds).
func persistJob(j *job) persist.JobState {
	engineNow := j.engine.Now()
	sched, _ := persist.DescribeSchedule(j.spec.Schedule, engineNow)
	models, skipped := libraryState(j.ctl.Library())
	par := j.engine.Parallelism()
	parInts := make([]int, len(par))
	copy(parInts, par)

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
		Parallelism:     parInts,
		Restarts:        j.engine.Restarts(),
		RNGState:        j.engine.RNGState(),
		Controller:      j.ctl.PersistState(),
		Library:         models,
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

// libraryState serializes a model library as training data. Models that
// expose none are skipped; their rates are returned so the snapshot
// records exactly which models a restore will be missing.
func libraryState(lib *transfer.ModelLibrary) (models []persist.ModelState, skipped []float64) {
	for _, e := range lib.Entries() {
		td, ok := e.Model.(transfer.TrainingData)
		if !ok {
			skipped = append(skipped, e.RateRPS)
			continue
		}
		xs, ys := td.TrainingData()
		models = append(models, persist.ModelState{RateRPS: e.RateRPS, Inputs: xs, Targets: ys})
	}
	return models, skipped
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
// controllers resume their trigger and SLO positions; libraries are
// refitted from training data; quarantined jobs come back quarantined,
// holding capacity but never stepped. On any error no fleet is returned —
// there is no partially restored state to clean up.
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

	for _, sl := range st.Shared {
		lib, err := restoreLibrary(sl.Models)
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
		if err := f.restoreJob(&st.Jobs[i]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// restoreJob readmits one job into the next submission slot: the same
// validate → admissible → build → register path as Submit, fed from the
// snapshot instead of defaults and derivations, plus the position only a
// snapshot knows. Caller owns f exclusively (restore runs before the
// fleet is shared).
func (f *Fleet) restoreJob(js *persist.JobState) error {
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
	lib, err := restoreLibrary(js.Library)
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
	for _, m := range js.Library {
		if d := len(m.Inputs[0]); d != ops {
			return fail(fmt.Errorf("model at %v rps has %d inputs, workload has %d operators", m.RateRPS, d, ops))
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

// restoreLibrary refits a library from persisted training data, then
// stores every model in one write.
func restoreLibrary(models []persist.ModelState) (*transfer.ModelLibrary, error) {
	entries := make([]transfer.Entry, len(models))
	for i, m := range models {
		model, err := transfer.Fit(m.Inputs, m.Targets)
		if err != nil {
			return nil, fmt.Errorf("refit model at %v rps: %w", m.RateRPS, err)
		}
		entries[i] = transfer.Entry{RateRPS: m.RateRPS, Model: model}
	}
	lib := transfer.NewModelLibrary()
	if err := lib.PutAll(entries); err != nil {
		return nil, err
	}
	return lib, nil
}
