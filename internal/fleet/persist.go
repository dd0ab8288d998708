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
	"sort"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/core"
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
// Drained jobs are omitted: their models already live in the shared
// libraries and their capacity is free.
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
	for _, name := range f.order {
		j := f.jobs[name]
		if j.state == StateDrained {
			continue
		}
		st.Jobs = append(st.Jobs, persistJob(j))
	}
	for _, sig := range sortedSignatures(f.SharedModelRatesLocked()) {
		models, skipped := libraryState(f.shared[sig])
		st.Shared = append(st.Shared, persist.SharedLibraryState{
			Signature:    sig,
			Models:       models,
			SkippedRates: skipped,
		})
	}
	return st
}

// SharedModelRatesLocked is SharedModelRates without the lock — for
// callers already under f.mu.
func (f *Fleet) SharedModelRatesLocked() map[string][]float64 {
	out := make(map[string][]float64, len(f.shared))
	for sig, lib := range f.shared {
		out[sig] = lib.Rates()
	}
	return out
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
		if err := f.restoreJob(&st.Jobs[i], i); err != nil {
			return nil, err
		}
	}
	f.submitSeq = len(st.Jobs)
	return f, nil
}

// restoreJob rebuilds one job in its persisted submission slot. Caller
// owns f exclusively (restore runs before the fleet is shared).
func (f *Fleet) restoreJob(js *persist.JobState, seq int) error {
	fail := func(err error) error {
		return fmt.Errorf("fleet: restore job %q: %w", js.Name, err)
	}
	if _, exists := f.jobs[js.Name]; exists {
		return fail(ErrDuplicateJob)
	}
	var state State
	switch State(js.State) {
	case StateRunning, StateQuarantined:
		state = State(js.State)
	default:
		return fail(fmt.Errorf("unknown job state %q", js.State))
	}
	workload, ok := workloads.ByName(js.Workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %v)", js.Workload, workloads.Names()))
	}
	schedule, err := persist.BuildSchedule(js.Schedule)
	if err != nil {
		return fail(err)
	}
	if f.usedCores+js.Machines*js.CoresPerMachine > f.cfg.TotalCores {
		return fail(fmt.Errorf("%w: %d cores demanded beyond the snapshot's own budget of %d",
			ErrAdmissionRejected, js.Machines*js.CoresPerMachine, f.cfg.TotalCores))
	}

	machines := make([]cluster.Machine, js.Machines)
	for i := range machines {
		machines[i] = cluster.Machine{
			Name:  fmt.Sprintf("%s-m%d", js.Name, i+1),
			Cores: js.CoresPerMachine,
			MemMB: js.MemPerMachineMB,
		}
	}
	cl, err := cluster.New(cluster.Config{Machines: machines})
	if err != nil {
		return fail(err)
	}
	var injector *chaos.Injector
	if f.cfg.Chaos.Enabled() {
		injector = chaos.New(f.cfg.Chaos, js.Seed)
	}

	lib, err := restoreLibrary(js.Library)
	if err != nil {
		return fail(err)
	}
	jobTracer := f.cfg.Tracer.Buffered()

	par := make(dataflow.ParallelismVector, len(js.Parallelism))
	copy(par, js.Parallelism)
	engine, err := workloads.NewEngine(workload, workloads.EngineOptions{
		JobName:            js.Name,
		Schedule:           schedule,
		InitialParallelism: par,
		Seed:               js.Seed,
		Cluster:            cl,
		Store:              f.cfg.Store,
		Tracer:             jobTracer,
		Chaos:              injector,
	})
	if err != nil {
		return fail(err)
	}
	engine.RestoreRNGState(js.RNGState)
	engine.RestoreRestarts(js.Restarts)

	// The policy comes back through the registry. "bo" (and the legacy
	// empty name) takes the controller's nil-policy default so the
	// restored library is adopted exactly as at submission; a quarantined
	// job's policy is never stepped again, so it too takes the inert
	// default rather than failing the whole restore on a name the
	// registry may have dropped.
	var pol core.Policy
	if name := js.Controller.PolicyName; name != "" && name != "bo" && state == StateRunning {
		pol, err = policy.Build(name, policy.Env{
			TargetLatencyMS: js.TargetLatencyMS,
			Seed:            js.Seed,
			MaxIterations:   js.MaxIterations,
			Library:         lib,
			Tracer:          jobTracer,
		})
		if err != nil {
			return fail(err)
		}
	}
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: js.TargetLatencyMS,
		MaxIterations:   js.MaxIterations,
		Seed:            js.Seed,
		Library:         lib,
		Tracer:          jobTracer,
		Policy:          pol,
	})
	if err != nil {
		return fail(err)
	}
	// SLO timestamps were captured in the old engine clock; the rebuilt
	// engine restarts at zero.
	ctlState := js.Controller
	ctlState.SLO = ctlState.SLO.Shifted(-js.EngineNowSec)
	ctl.RestoreState(ctlState)

	j := &job{
		spec: JobSpec{
			Name:            js.Name,
			Workload:        workload,
			Schedule:        schedule,
			RateRPS:         js.RateRPS,
			TargetLatencyMS: js.TargetLatencyMS,
			Machines:        js.Machines,
			CoresPerMachine: js.CoresPerMachine,
			MemPerMachineMB: js.MemPerMachineMB,
			MaxIterations:   js.MaxIterations,
			Signature:       js.Signature,
		},
		seed:   js.Seed,
		seq:    seq,
		engine: engine,
		ctl:    ctl,
		state:  state,
		tracer: jobTracer,
		// The rebuilt engine's clock restarts at zero, so the job's time
		// origin moves to its persisted due time; the schedule's ShiftSec
		// keeps the input rate a function of the original timeline.
		offsetSec:      js.DueAtSec,
		steps:          js.Steps,
		warmStarted:    js.WarmStarted,
		warmSourceRate: js.WarmSourceRate,
		published:      make(map[float64]bool, len(js.PublishedRates)),
	}
	if js.Error != "" {
		j.err = errors.New(js.Error)
	}
	for _, rate := range js.PublishedRates {
		j.published[rate] = true
	}

	f.jobs[js.Name] = j
	f.order = append(f.order, js.Name)
	f.usedCores += j.spec.cores()
	f.healthAdmit(j)
	if state == StateQuarantined {
		// Quarantined jobs hold capacity and stay inspectable but never
		// re-enter the wheel.
		f.healthQuarantine(j)
	} else {
		f.wheel.push(wheelEntry{key: js.DueAtSec, seq: seq, job: j})
	}
	j.tracer.Flush()
	return nil
}

// restoreLibrary refits a library from persisted training data.
func restoreLibrary(models []persist.ModelState) (*transfer.ModelLibrary, error) {
	lib := transfer.NewModelLibrary()
	for _, m := range models {
		snap, err := transfer.NewSnapshot(m.Inputs, m.Targets)
		if err != nil {
			return nil, fmt.Errorf("refit model at %v rps: %w", m.RateRPS, err)
		}
		if err := lib.Put(m.RateRPS, snap); err != nil {
			return nil, err
		}
	}
	return lib, nil
}
