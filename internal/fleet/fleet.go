// Package fleet is the multi-job control plane of the reproduction: it
// runs N independent AuTraScale jobs — each its own flink.Engine plus
// core.Controller — under one sharded scheduler, and shares their
// transfer-learning model libraries so new jobs warm-start instead of
// cold-starting Algorithm 1.
//
// The paper (§IV) plans one job at a time; a production controller
// serves hundreds. The fleet layer adds exactly the machinery that step
// needs and nothing else:
//
//   - A shared simulated clock advanced in rounds (Config.RoundSec). Each
//     round, every running job whose engine lags the fleet clock is
//     stepped until it catches up; jobs whose planning sessions burned
//     hours of simulated time simply skip rounds until the clock passes
//     them. A bounded worker pool shards the due jobs — engines are
//     fully independent, so stepping them concurrently cannot change any
//     job's decisions.
//
//   - Job lifecycle: Submit admits a job against the fleet's aggregate
//     core budget (Config.TotalCores) and carves it a dedicated slice of
//     capacity; Drain retires it gracefully (models published, capacity
//     freed); Remove deletes it outright.
//
//   - Graceful degradation: a controller error quarantines that job at
//     the next round barrier — the fleet keeps ticking everyone else.
//
//   - Cross-job warm start: at every round barrier each job's newly
//     fitted benefit models are published into a fleet-level
//     transfer.ModelLibrary keyed by workload signature. A submission
//     whose signature already has models near its rate gets the nearest
//     one preloaded into its controller library — shared by pointer,
//     since stored models are immutable — so its first planning session
//     runs Algorithm 2 (transfer) instead of Algorithm 1 — "Learning from
//     the Past" across jobs, not just rates.
//
// # Determinism
//
// Every stochastic choice derives from Config.Seed: per-job engine,
// controller, and chaos-injector seeds are splitmix-derived from the
// fleet seed and the job name, submissions are sequential, and model
// publication happens at round barriers in submission order. Two fleets
// built from the same configuration and submission sequence therefore
// produce identical per-job decision sequences regardless of the worker
// count — the fleet golden test locks this in.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// Sentinel errors of the job lifecycle.
var (
	// ErrAdmissionRejected marks a Submit that would exceed TotalCores.
	ErrAdmissionRejected = errors.New("fleet: admission rejected")
	// ErrDuplicateJob marks a Submit reusing a live job name.
	ErrDuplicateJob = errors.New("fleet: duplicate job name")
	// ErrUnknownJob marks an operation on a name the fleet does not hold.
	ErrUnknownJob = errors.New("fleet: unknown job")
)

// Config parameterizes a Fleet.
type Config struct {
	// TotalCores is the aggregate capacity budget admissions are checked
	// against (required). Each admitted job holds its declared cores
	// until it is drained or removed.
	TotalCores int
	// Workers bounds the scheduler's worker pool (default
	// min(8, GOMAXPROCS)). The worker count never affects decisions,
	// only wall-clock speed.
	Workers int
	// RoundSec is the shared-clock advance per Round (default 60 — one
	// policy interval).
	RoundSec float64
	// Seed is the fleet seed; per-job engine/controller/chaos seeds are
	// derived from it and the job name.
	Seed uint64
	// Chaos, when enabled, gives every job its own injector for this
	// profile, seeded from the fleet seed (schedules compose per job
	// without perturbing each other).
	Chaos chaos.Profile
	// Store receives per-job series plus the fleet-aggregate counters
	// and histograms (optional).
	Store *metrics.Store
	// Tracer records fleet.tick / fleet.admit / fleet.warmstart spans and
	// is threaded into every job's engine and controller (optional).
	Tracer *trace.Tracer
}

func (c *Config) defaults() error {
	if c.TotalCores <= 0 {
		return errors.New("fleet: TotalCores must be > 0")
	}
	if c.Workers <= 0 {
		c.Workers = min(8, runtime.GOMAXPROCS(0))
	}
	if c.RoundSec <= 0 {
		c.RoundSec = 60
	}
	return nil
}

// JobSpec describes one job submission.
type JobSpec struct {
	// Name identifies the job (metrics tag, lifecycle handle). Required,
	// unique among live jobs.
	Name string
	// Workload is the benchmark the job runs.
	Workload workloads.Spec
	// Schedule overrides the input-rate schedule (default: constant
	// RateRPS).
	Schedule kafka.RateSchedule
	// RateRPS is the constant input rate when Schedule is nil (default:
	// the workload's).
	RateRPS float64
	// TargetLatencyMS is the QoS target (default: the workload's).
	TargetLatencyMS float64
	// Machines and CoresPerMachine size the job's dedicated capacity
	// slice (defaults 2 × 16); Machines × CoresPerMachine is the demand
	// admission checks against TotalCores.
	Machines        int
	CoresPerMachine int
	// MemPerMachineMB is each machine's memory (default 65536). The
	// simulator models no memory limit; the value travels with the job
	// through snapshots and the admin API.
	MemPerMachineMB int
	// MaxIterations bounds each BO planning session (default 10 — fleet
	// jobs should not monopolize simulated time).
	MaxIterations int
	// Signature keys the fleet's shared model library: jobs with equal
	// signatures exchange benefit models (default: the workload name).
	Signature string
	// Policy builds the job's scaling policy from its admission-time
	// environment (nil: the paper's BO/transfer planner). Non-BO policies
	// ignore the warm-start library, so model publication becomes a no-op
	// for them while quarantine, health, and journaling work unchanged.
	Policy PolicyBuilder
}

// PolicyBuilder constructs a job's scaling policy at admission.
type PolicyBuilder func(PolicyEnv) (core.Policy, error)

// PolicyEnv is what a policy builder sees at admission (core.PolicyEnv):
// the job's targets after defaulting plus the controller plumbing the
// fleet wires up — per-job seed, warm-started library, buffered tracer.
type PolicyEnv = core.PolicyEnv

// defaults fills the fields a submission left zero.
func (s *JobSpec) defaults() {
	if s.RateRPS <= 0 {
		s.RateRPS = s.Workload.DefaultRateRPS
	}
	if s.Schedule == nil {
		s.Schedule = kafka.ConstantRate(s.RateRPS)
	}
	if s.TargetLatencyMS <= 0 {
		s.TargetLatencyMS = s.Workload.TargetLatencyMS
	}
	if s.Machines <= 0 {
		s.Machines = 2
	}
	if s.CoresPerMachine <= 0 {
		s.CoresPerMachine = 16
	}
	if s.MemPerMachineMB <= 0 {
		s.MemPerMachineMB = 65536
	}
	if s.MaxIterations <= 0 {
		s.MaxIterations = 10
	}
	if s.Signature == "" {
		s.Signature = s.Workload.Name
	}
}

// validate is the one check of a complete spec, run by Submit after
// defaults and by Restore on the snapshot's values as they are: a
// snapshot carries post-default values, so there a non-positive field is
// corruption to report, not a zero to fill. Fields are named as the
// snapshot and the admin API spell them.
func (s *JobSpec) validate() error {
	switch {
	case s.Name == "":
		return errors.New("job needs a name")
	case s.Workload.BuildGraph == nil:
		return fmt.Errorf("job %q has no workload graph", s.Name)
	case s.Machines <= 0:
		return fmt.Errorf("machines must be > 0, got %d", s.Machines)
	case s.CoresPerMachine <= 0:
		return fmt.Errorf("cores_per_machine must be > 0, got %d", s.CoresPerMachine)
	case s.MemPerMachineMB <= 0:
		return fmt.Errorf("mem_per_machine_mb must be > 0, got %d", s.MemPerMachineMB)
	case s.MaxIterations <= 0:
		return fmt.Errorf("max_iterations must be > 0, got %d", s.MaxIterations)
	case !(s.TargetLatencyMS > 0): // NaN fails too
		return fmt.Errorf("target_latency_ms must be > 0, got %v", s.TargetLatencyMS)
	}
	return nil
}

// cores is the capacity demand admission checks.
func (s *JobSpec) cores() int { return s.Machines * s.CoresPerMachine }

// initialRate is the rate the warm-start lookup targets: what the job
// will observe when it starts.
func (s *JobSpec) initialRate() float64 {
	if r := s.Schedule.RateAt(0); r > 0 {
		return r
	}
	return s.RateRPS
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states.
const (
	// StateRunning jobs are stepped every round.
	StateRunning State = "running"
	// StateQuarantined jobs hit a controller error: they stop being
	// stepped but keep their capacity and state for inspection until
	// drained or removed. The fleet itself keeps running.
	StateQuarantined State = "quarantined"
	// StateDrained jobs were retired gracefully: models published,
	// capacity freed, engine kept for inspection.
	StateDrained State = "drained"
)

// job is the fleet's per-job bookkeeping.
type job struct {
	spec   JobSpec
	seed   uint64
	seq    int // submission sequence; orders the round barrier
	engine *flink.Engine
	ctl    *core.Controller
	state  State
	err    error
	// tracer is the job's buffered conduit onto the fleet tracer: spans
	// the engine and controller emit while a worker steps the job stay
	// local and are flushed to the shared ring in one batch at the round
	// barrier (nil when the fleet traces nothing).
	tracer *trace.Tracer

	offsetSec float64 // fleet clock at submission; the job's time origin
	steps     int     // MAPE steps taken

	// health and burn mirror the job's slot in the fleet's incremental
	// health aggregate (health.go), updated only on transitions.
	health healthClass
	burn   float64

	warmStarted    bool
	warmSourceRate float64
	published      map[float64]bool // rates already in the shared library
}

// Fleet runs many jobs under one sharded scheduler. All methods are safe
// for concurrent use; Round holds the fleet lock for the whole round, so
// observers (metricsd handlers) see consistent barriers.
type Fleet struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order: the deterministic barrier order
	usedCores int
	nowSec    float64
	rounds    int
	submitSeq int // next job.seq
	// wheel schedules the next due time of every running job, so Round
	// finds the due set in O(due · log jobs) instead of scanning all jobs.
	wheel timerWheel
	// due and reinsert are Round's working slices, reused across rounds
	// so a steady-state tick allocates nothing for scheduling.
	due      []*job
	reinsert []wheelEntry
	// shards are the per-worker telemetry accumulators (allocated once,
	// cache-line padded); inst caches the fleet-aggregate instrument
	// handles so barrier emission is plain atomic math.
	shards []workerShard
	inst   *fleetInstruments
	// shared maps workload signature → the fleet-level model library new
	// submissions warm-start from.
	shared map[string]*transfer.ModelLibrary
	// health is the incremental aggregate (health.go) Snapshot and
	// /debug/health answer from without walking jobs.
	health healthAgg
	// barrierVisited counts jobs handled at round barriers, cumulatively —
	// the observable that proves the per-round cost is O(due), not
	// O(jobs) (see TestFleetBarrierIsODue).
	barrierVisited int
}

// workerShard accumulates one round worker's telemetry locally; the
// barrier sums shards once instead of workers contending on shared
// counters mid-round. Padded so neighboring shards never share a cache
// line.
type workerShard struct {
	steps int
	_     [56]byte
}

// fleetInstruments caches the fleet-aggregate counters and histograms;
// nil when no store is attached. Resolving each handle once at
// construction keeps tag encoding and registry lookups off the round
// path.
type fleetInstruments struct {
	submitted, rejected, drained, removed, quarantined *metrics.Counter
	warmstarts, published, rounds, steps               *metrics.Counter
	roundJobs                                          *metrics.Histogram
}

func newFleetInstruments(st *metrics.Store) *fleetInstruments {
	if st == nil {
		return nil
	}
	return &fleetInstruments{
		submitted:   st.Counter("autrascale.fleet.jobs_submitted", nil),
		rejected:    st.Counter("autrascale.fleet.jobs_rejected", nil),
		drained:     st.Counter("autrascale.fleet.jobs_drained", nil),
		removed:     st.Counter("autrascale.fleet.jobs_removed", nil),
		quarantined: st.Counter("autrascale.fleet.jobs_quarantined", nil),
		warmstarts:  st.Counter("autrascale.fleet.warmstarts", nil),
		published:   st.Counter("autrascale.fleet.models_published", nil),
		rounds:      st.Counter("autrascale.fleet.rounds", nil),
		steps:       st.Counter("autrascale.fleet.steps", nil),
		roundJobs:   st.Histogram("autrascale.fleet.round.jobs_stepped", nil, roundStepBuckets),
	}
}

// New validates the configuration and builds an empty fleet.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Fleet{
		cfg:    cfg,
		jobs:   map[string]*job{},
		shards: make([]workerShard, cfg.Workers),
		inst:   newFleetInstruments(cfg.Store),
		shared: map[string]*transfer.ModelLibrary{},
	}, nil
}

// deriveSeed mixes the fleet seed with a job name (FNV-1a, then a
// splitmix64 finalizer) so every job gets an independent, reproducible
// random stream.
func deriveSeed(fleetSeed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := h ^ fleetSeed
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Now returns the fleet's shared simulated clock.
func (f *Fleet) Now() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nowSec
}

// Submit admits a job: capacity check, dedicated cluster, derived seeds,
// warm start from the shared model library when a signature match
// exists. The job starts participating at the next Round.
func (f *Fleet) Submit(spec JobSpec) error {
	spec.defaults()
	if err := spec.validate(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	sp := f.cfg.Tracer.StartSpan("fleet.admit")
	defer sp.End()
	if f.cfg.Tracer.Enabled() {
		sp.SetFloat("t_sec", f.nowSec)
		sp.SetStr("job", spec.Name)
		sp.SetStr("signature", spec.Signature)
		sp.SetInt("cores_demand", spec.cores())
		sp.SetInt("cores_used", f.usedCores)
		sp.SetInt("cores_total", f.cfg.TotalCores)
	}
	if err := f.admissible(&spec); err != nil {
		sp.SetBool("granted", false)
		if f.inst != nil && errors.Is(err, ErrAdmissionRejected) {
			f.inst.rejected.Inc()
		}
		return err
	}

	seed := deriveSeed(f.cfg.Seed, spec.Name)
	lib, warmRate, warm := f.warmStartLibrary(spec)
	j, err := f.build(spec, seed, lib, nil)
	if err != nil {
		return fmt.Errorf("fleet: job %q: %w", spec.Name, err)
	}
	j.offsetSec = f.nowSec
	j.warmStarted, j.warmSourceRate = warm, warmRate
	if warm {
		// The preloaded model is already in the shared library — do not
		// publish it back at the next barrier.
		j.published[warmRate] = true
	}
	f.register(j)
	if f.inst != nil {
		f.inst.submitted.Inc()
	}
	sp.SetBool("granted", true)
	sp.SetBool("warm_started", warm)
	return nil
}

// admissible is the admission check Submit and Restore share: the name is
// free and the demand fits what is left of the core budget. The spec is
// validated, so both factors are positive; dividing instead of
// multiplying keeps a hostile snapshot's huge factors from overflowing
// their way past the budget.
func (f *Fleet) admissible(spec *JobSpec) error {
	if _, exists := f.jobs[spec.Name]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateJob, spec.Name)
	}
	if spec.Machines > (f.cfg.TotalCores-f.usedCores)/spec.CoresPerMachine {
		return fmt.Errorf("%w: job %q needs %d cores, %d of %d in use",
			ErrAdmissionRejected, spec.Name, spec.cores(), f.usedCores, f.cfg.TotalCores)
	}
	return nil
}

// build assembles a job's runtime — dedicated cluster, chaos injector,
// buffered trace conduit, engine, policy, controller, in the seeded
// order every golden pins — and is the only place the fleet constructs
// any of them. Submit passes a derived seed, the warm-start library and
// nil (the workload's initial parallelism); Restore passes the
// snapshot's. The job comes back running, with its time origin, history
// and lifecycle state for the caller to fill in before register.
func (f *Fleet) build(spec JobSpec, seed uint64, lib *transfer.ModelLibrary, par dataflow.ParallelismVector) (*job, error) {
	machines := make([]cluster.Machine, spec.Machines)
	for i := range machines {
		machines[i] = cluster.Machine{
			Name:  fmt.Sprintf("%s-m%d", spec.Name, i+1),
			Cores: spec.CoresPerMachine,
		}
	}
	cl, err := cluster.New(cluster.Config{Machines: machines})
	if err != nil {
		return nil, err
	}
	var injector *chaos.Injector
	if f.cfg.Chaos.Enabled() {
		injector = chaos.New(f.cfg.Chaos, seed)
	}
	// The job's engine and controller emit through a buffered conduit:
	// spans accumulate locally while a pool worker steps the job and are
	// flushed to the shared ring in one batch at the round barrier.
	jobTracer := f.cfg.Tracer.Buffered()
	engine, err := workloads.NewEngine(spec.Workload, workloads.EngineOptions{
		JobName:            spec.Name,
		Schedule:           spec.Schedule,
		InitialParallelism: par,
		Seed:               seed,
		Cluster:            cl,
		Store:              f.cfg.Store,
		Tracer:             jobTracer,
		Chaos:              injector,
	})
	if err != nil {
		return nil, err
	}
	env := PolicyEnv{
		TargetLatencyMS: spec.TargetLatencyMS,
		MaxIterations:   spec.MaxIterations,
		Seed:            seed,
		Library:         lib,
		Tracer:          jobTracer,
	}
	var pol core.Policy
	if spec.Policy != nil {
		if pol, err = spec.Policy(env); err != nil {
			return nil, fmt.Errorf("policy: %w", err)
		}
	}
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: env.TargetLatencyMS,
		MaxIterations:   env.MaxIterations,
		Seed:            env.Seed,
		Library:         env.Library,
		Tracer:          env.Tracer,
		Policy:          pol,
	})
	if err != nil {
		return nil, err
	}
	return &job{
		spec:      spec,
		seed:      seed,
		engine:    engine,
		ctl:       ctl,
		state:     StateRunning,
		tracer:    jobTracer,
		published: map[float64]bool{},
	}, nil
}

// register puts a built job in the next submission slot: the name map,
// the barrier order, the core budget, the health aggregate and — unless
// it is quarantined, which holds capacity and stays inspectable but is
// never stepped again — the wheel. Caller holds f.mu.
func (f *Fleet) register(j *job) {
	j.seq = f.submitSeq
	f.submitSeq++
	f.jobs[j.spec.Name] = j
	f.order = append(f.order, j.spec.Name)
	f.usedCores += j.spec.cores()
	f.healthAdmit(j)
	if j.state == StateQuarantined {
		f.healthQuarantine(j)
	} else {
		// A fresh engine's clock is at 0, so the job is due at its time
		// origin: the next round for a submission, the persisted due time
		// for a restore.
		f.wheel.push(wheelEntry{key: j.offsetSec + j.engine.Now(), seq: j.seq, job: j})
	}
	j.tracer.Flush() // construction-time spans
}

// warmStartLibrary builds the controller library a submission starts
// with: empty for a cold start, or preloaded with the nearest
// same-signature model from the shared library — the same pointer, since
// stored models are immutable. Signature is free text, so a donor is only
// taken when its input dimension is the job's operator count; any other
// donor would be transferred onto the wrong configuration space.
func (f *Fleet) warmStartLibrary(spec JobSpec) (lib *transfer.ModelLibrary, rate float64, ok bool) {
	lib = transfer.NewModelLibrary()
	shared := f.shared[spec.Signature]
	if shared == nil || shared.Len() == 0 {
		return lib, 0, false
	}
	sp := f.cfg.Tracer.StartSpan("fleet.warmstart")
	defer sp.End()
	entry, found := shared.Nearest(spec.initialRate())
	if f.cfg.Tracer.Enabled() {
		sp.SetFloat("t_sec", f.nowSec)
		sp.SetStr("job", spec.Name)
		sp.SetStr("signature", spec.Signature)
		sp.SetFloat("target_rate", spec.initialRate())
		sp.SetInt("library_models", shared.Len())
	}
	if !found || inputDim(entry.Model) != spec.Workload.BuildGraph().NumOperators() {
		sp.SetBool("ok", false)
		return lib, 0, false
	}
	if err := lib.Put(entry.RateRPS, entry.Model); err != nil {
		sp.SetBool("ok", false)
		return lib, 0, false
	}
	if f.cfg.Tracer.Enabled() {
		sp.SetFloat("source_rate", entry.RateRPS)
		sp.SetBool("ok", true)
	}
	if f.inst != nil {
		f.inst.warmstarts.Inc()
	}
	return lib, entry.RateRPS, true
}

// inputDim is a model's input dimension, read from its training data: 0
// when it exposes none, so such a model is never a warm-start donor.
func inputDim(m transfer.Predictor) int {
	td, ok := m.(transfer.TrainingData)
	if !ok {
		return 0
	}
	xs, _ := td.TrainingData()
	if len(xs) == 0 {
		return 0
	}
	return len(xs[0])
}

// Drain retires a job gracefully: its benefit models are published to
// the shared library (unless it is quarantined — a broken controller's
// models are not trusted), its capacity is freed, and it stops being
// stepped. The job remains inspectable until Remove.
func (f *Fleet) Drain(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	if j.state == StateDrained {
		return nil
	}
	if j.state == StateRunning {
		f.publishModels(j)
	}
	f.usedCores -= j.spec.cores()
	j.state = StateDrained
	f.healthDrain(j)
	j.tracer.Flush()
	if f.inst != nil {
		f.inst.drained.Inc()
	}
	return nil
}

// Remove deletes a job outright, freeing its capacity and releasing its
// telemetry from the store. Unlike Drain it publishes nothing.
func (f *Fleet) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	if j.state != StateDrained {
		f.usedCores -= j.spec.cores()
	}
	f.healthRemove(j)
	delete(f.jobs, name)
	for i, n := range f.order {
		if n == name {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	j.tracer.Flush()
	if st := f.cfg.Store; st != nil {
		// Release the job's series and instruments: /metrics stops
		// exposing it, and a later job of the same name starts fresh
		// series at its own t=0 instead of appending behind this one's.
		st.DropTagged("job", name)
		f.inst.removed.Inc()
	}
	return nil
}

// Instrument bucket layout for the per-round step-count histogram.
var roundStepBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// Round advances the shared clock by RoundSec and steps every running
// job whose engine lags it, sharding the work across the bounded worker
// pool. The due set comes from the timer wheel (O(due · log jobs), not a
// scan of every job); at the barrier, due jobs are quarantined or have
// their fresh models published in submission order, their next due times
// re-enter the wheel, and their buffered spans flush to the shared ring.
// Only stepped jobs can gain an error or a new model, so the due-only
// barrier evolves the shared library exactly as the historical all-jobs
// pass did.
func (f *Fleet) Round() {
	f.mu.Lock()
	defer f.mu.Unlock()

	f.nowSec += f.cfg.RoundSec
	f.rounds++
	sp := f.cfg.Tracer.StartSpan("fleet.tick")
	defer sp.End()

	// Collect the due set. The wheel keys are conservative (see wheel.go):
	// pop everything within half a round of the clock, then apply the
	// exact legacy due comparison. False positives go back in after the
	// loop — pushing mid-loop could re-pop them this round.
	due := f.due[:0]
	reinsert := f.reinsert[:0]
	slack := f.cfg.RoundSec / 2
	for f.wheel.len() > 0 && f.wheel.peek().key < f.nowSec+slack {
		e := f.wheel.pop()
		j := e.job
		if f.jobs[j.spec.Name] != j || j.state != StateRunning {
			continue // stale entry: job drained, removed, quarantined, or replaced
		}
		if j.engine.Now() < f.nowSec-j.offsetSec {
			due = append(due, j)
			continue
		}
		// The job's engine ran ahead of the clock (a long planning
		// session); keep its entry for the round its lead runs out.
		reinsert = append(reinsert, wheelEntry{key: j.offsetSec + j.engine.Now(), seq: e.seq, job: j})
	}
	for _, e := range reinsert {
		f.wheel.push(e)
	}
	f.due, f.reinsert = due, reinsert[:0]
	// The wheel pops in due-time order; the barrier below needs
	// submission order.
	slices.SortFunc(due, func(a, b *job) int { return a.seq - b.seq })

	// Shard the due jobs across the pool: workers pull indices from an
	// atomic cursor, so a job is owned by exactly one worker for the
	// round. Engines are independent — no two goroutines ever touch the
	// same mutable state — and each worker accumulates telemetry in its
	// own padded shard, summed once at the barrier.
	workers := min(f.cfg.Workers, len(due))
	totalSteps := 0
	if workers > 0 {
		shards := f.shards[:workers]
		for i := range shards {
			shards[i].steps = 0
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(shard *workerShard) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(due) {
						return
					}
					shard.steps += f.stepJob(due[i])
				}
			}(&shards[w])
		}
		wg.Wait()
		for i := range shards {
			totalSteps += shards[i].steps
		}
	}

	// Barrier: quarantine errored jobs, publish fresh models, reschedule,
	// and flush buffered spans — all in submission order so the shared
	// library's evolution (and thus every later warm start) is
	// reproducible. Quarantined jobs leave the wheel by omission.
	quarantined := 0
	for _, j := range due {
		f.barrierVisited++
		if j.err != nil {
			j.state = StateQuarantined
			f.healthQuarantine(j)
			quarantined++
			if f.inst != nil {
				f.inst.quarantined.Inc()
			}
			if f.cfg.Tracer.Enabled() {
				qsp := f.cfg.Tracer.StartSpan("fleet.quarantine")
				qsp.SetFloat("t_sec", f.nowSec)
				qsp.SetStr("job", j.spec.Name)
				qsp.SetStr("error", j.err.Error())
				qsp.End()
			}
			if j.tracer.FlightEnabled() {
				// The conduit still carries the failing step's correlation
				// id, so the quarantine joins that decision's causal chain.
				j.tracer.Emit(trace.Record{
					TimeSec: f.nowSec,
					Kind:    trace.KindQuarantine,
					Job:     j.spec.Name,
					Attrs:   map[string]any{"error": j.err.Error()},
				})
			}
			j.tracer.Flush()
			continue
		}
		f.healthObserve(j)
		f.publishModels(j)
		f.wheel.push(wheelEntry{key: j.offsetSec + j.engine.Now(), seq: j.seq, job: j})
		j.tracer.Flush()
	}

	if f.inst != nil {
		f.inst.rounds.Inc()
		f.inst.steps.Add(float64(totalSteps))
		f.inst.roundJobs.Observe(float64(len(due)))
	}
	if f.cfg.Tracer.Enabled() {
		sp.SetFloat("t_sec", f.nowSec)
		sp.SetInt("jobs", len(f.order))
		sp.SetInt("due", len(due))
		sp.SetInt("steps", totalSteps)
		sp.SetInt("quarantined", quarantined)
	}
}

// stepJob advances one job until its engine catches up with the fleet
// clock (relative to its submission time), returning the steps taken.
// Runs on a pool worker; only this goroutine touches the job during the
// round.
func (f *Fleet) stepJob(j *job) int {
	target := f.nowSec - j.offsetSec
	n := 0
	for j.engine.Now() < target {
		if _, err := j.ctl.Step(); err != nil {
			j.err = err
			break
		}
		n++
	}
	j.steps += n
	return n
}

// publishModels puts the job's newly fitted benefit models — the same
// pointers, since stored models are immutable — into the fleet's shared
// library for its signature. Called under the fleet lock, in submission
// order. Iterating the library's immutable snapshot keeps the
// steady-state no-op case (everything already published) free of
// allocation.
func (f *Fleet) publishModels(j *job) {
	for _, e := range j.ctl.Library().Entries() {
		rate := e.RateRPS
		if j.published[rate] {
			continue
		}
		j.published[rate] = true
		lib := f.shared[j.spec.Signature]
		if lib == nil {
			lib = transfer.NewModelLibrary()
			f.shared[j.spec.Signature] = lib
		}
		if err := lib.Put(rate, e.Model); err != nil {
			continue
		}
		if f.inst != nil {
			f.inst.published.Inc()
		}
	}
}

// RunUntil advances rounds until the shared clock reaches untilSec.
func (f *Fleet) RunUntil(untilSec float64) {
	for f.Now() < untilSec {
		f.Round()
	}
}

// Decisions returns a job's retained decision reports (oldest first).
func (f *Fleet) Decisions(name string) ([]core.DecisionReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	return j.ctl.Decisions(), nil
}

// Events returns a job's controller event log (oldest first).
func (f *Fleet) Events(name string) ([]core.Event, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	return j.ctl.Events(), nil
}

// JobNames lists live jobs in submission order.
func (f *Fleet) JobNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}

// SharedModelRates reports the shared library contents: signature → the
// rates models exist for (sorted), for observability endpoints.
func (f *Fleet) SharedModelRates() map[string][]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]float64, len(f.shared))
	for sig, lib := range f.shared {
		out[sig] = lib.Rates()
	}
	return out
}

// StaggeredJobs builds n copies of a workload with input rates spread
// ±15% around baseRate (the workload default when baseRate <= 0), named
// <workload>-01..n — the canonical multi-job setup the commands and
// examples use. Staggering matters: identical rates would make every
// warm start an exact-rate hit, hiding the nearest-model transfer path.
func StaggeredJobs(spec workloads.Spec, n int, baseRate float64) []JobSpec {
	if baseRate <= 0 {
		baseRate = spec.DefaultRateRPS
	}
	jobs := make([]JobSpec, n)
	for i := range jobs {
		factor := 1.0
		if n > 1 {
			factor = 0.85 + 0.30*float64(i)/float64(n-1)
		}
		jobs[i] = JobSpec{
			Name:     fmt.Sprintf("%s-%02d", spec.Name, i+1),
			Workload: spec,
			RateRPS:  baseRate * factor,
		}
	}
	return jobs
}

// sortedSignatures returns a signature-keyed map's keys in sorted order
// (deterministic rendering and capture).
func sortedSignatures[V any](m map[string]V) []string {
	sigs := make([]string, 0, len(m))
	for s := range m {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return sigs
}
