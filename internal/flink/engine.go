// Package flink is a deterministic discrete-time simulator of a stream
// processing system, standing in for the paper's Flink 1.10 + YARN
// testbed. It simulates a job (a dataflow.Graph) running on a
// cluster.Cluster, consuming from a kafka.Topic, and exposes exactly the
// observable surface the AuTraScale/DS2/DRS controllers need:
//
//   - true processing rate per operator instance (busy-time based, DS2's
//     metric, paper Eq. 2),
//   - observed processing rate (includes waiting, i.e. actual throughput
//     per instance),
//   - job throughput, processing latency, event-time latency, Kafka lag,
//   - CPU/memory usage for Fig. 8(c) accounting.
//
// # Performance model
//
// The per-instance true rate of operator i at parallelism k is a
// Universal-Scalability-Law curve scaled by cluster interference:
//
//	v_i(k) = BaseRate_i / (1 + σ_i·(k−1) + κ_i·k·(k−1)) · I(demand)
//
// where I is cluster.InterferenceFactor of the total provisioned CPU
// demand. σ captures synchronization between instances and κ cross-talk;
// together they produce the paper's Observation 2.1 (non-linear
// throughput scaling). Operators with ExternalCapRPS (the Yahoo
// benchmark's Redis) additionally have their *total* rate capped.
//
// Flink's credit-based backpressure keeps internal queues bounded and
// pushes accumulation back to Kafka, so the simulator routes all standing
// data into topic lag: per tick the source consumes
// min(input available, job bottleneck capacity).
//
// Latency per operator = fixed cost + queueing delay rising with
// utilization + communication cost growing linearly in parallelism
// (Observation 2.2). Event-time latency adds the Kafka pending time.
package flink

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
)

// ErrRescaleFailed is returned (wrapped) when a rescale exhausts its
// retry budget or deadline. The controller treats it as a degraded —
// not fatal — outcome: it keeps the last-known-good configuration and
// re-plans on the next policy tick.
var ErrRescaleFailed = errors.New("flink: rescale failed")

// rateNoiseStdDev is the relative std-dev of per-tick rate jitter.
const rateNoiseStdDev = 0.01

// Config configures an Engine.
type Config struct {
	Graph   *dataflow.Graph
	Cluster *cluster.Cluster
	Topic   *kafka.Topic
	// Store receives per-tick metrics; optional.
	Store *metrics.Store
	// JobName tags metrics; defaults to the graph name.
	JobName string
	// Seed drives measurement noise; the same seed reproduces a run
	// exactly.
	Seed uint64
	// TickSec is the simulation step (default 1s).
	TickSec float64
	// RestartDowntimeSec is the savepoint-stop-restart outage when the
	// parallelism changes (default 10s) — §IV Execute.
	RestartDowntimeSec float64
	// NoNoise disables all stochastic jitter; otherwise per-tick rates
	// jitter with a relative std-dev of rateNoiseStdDev.
	NoNoise bool
	// InitialParallelism is the starting configuration (default all 1).
	InitialParallelism dataflow.ParallelismVector
	// Tracer records rescale actions and measurement windows; nil
	// disables tracing. Per-tick work is never traced.
	Tracer *trace.Tracer
	// Chaos injects faults (failed/slow rescales, dropped or corrupted
	// measurement ticks, scheduled machine kills, partition stalls);
	// nil disables injection at zero cost.
	Chaos *chaos.Injector
	// RescaleMaxAttempts bounds how often a failed rescale is retried
	// before giving up (default 4).
	RescaleMaxAttempts int
	// RescaleBackoffSec is the first retry backoff in simulated
	// seconds; it doubles per attempt (default 5).
	RescaleBackoffSec float64
	// RescaleDeadlineSec bounds the total simulated time one rescale
	// may spend retrying (default 120).
	RescaleDeadlineSec float64
}

// Engine is the simulator instance for one job.
type Engine struct {
	graph   *dataflow.Graph
	cluster *cluster.Cluster
	topic   *kafka.Topic
	store   *metrics.Store
	met     engineMetrics
	tracer  *trace.Tracer
	jobName string
	// rng is held by value. Every tick writes it, and an 8-byte RNG of
	// its own would be packed by the allocator beside other engines'
	// into one cache line, which workers stepping neighbouring jobs at
	// once would contend for.
	rng   stat.RNG
	chaos *chaos.Injector

	tickSec     float64
	downtimeSec float64
	rateNoise   float64

	rescaleMaxAttempts int
	rescaleBackoffSec  float64
	rescaleDeadlineSec float64

	par          dataflow.ParallelismVector
	parText      string // par's text, formatted on the first read after a rescale
	nowSec       float64
	restartUntil float64
	restarts     int

	// plan holds, per operator, every quantity Tick needs that changes
	// only with the parallelism; compile rebuilds it on a rescale.
	plan      []opPlan
	memUsedMB float64

	// The last live tick: job throughput, and per operator the rates and
	// the utilization next tick's CPU demand is weighted by. Tick writes
	// these in place.
	lastThroughput float64
	last           []opRates
	lastUtil       []float64

	// Window accumulators since the last Reconfigure/ResetWindow.
	win windowAccum
	// sampling keeps latency samples (MeasureSteadySampled's window).
	sampling bool
}

// opPlan is one operator compiled against the active parallelism k. The
// graph is immutable after Validate, so a plan is stale only after a
// rescale; machine failures change the cluster's capacity, which Tick
// reads from the cluster every tick.
//
// Each field is a sub-expression the model evaluates as a unit, hoisted
// unchanged, so a run is bit-identical to one recomputing them per tick.
type opPlan struct {
	k             float64 // parallelism
	arrivalFac    float64 // records arriving at the operator per source record
	baseRate      float64 // BaseRatePerInstance / (1 + σ·(k−1) + κ·k·(k−1))
	extCapRPS     float64 // ExternalCapRPS; 0 means uncapped
	extCapPerInst float64 // ExternalCapRPS / k
	cpuCores      float64 // k · CPUPerInstance
	fixedLatMS    float64
	queueScaleMS  float64
	maxCongestion float64 // with the default of 25 applied
	stateLatMS    float64 // StateCostMS / k
	commLatMS     float64 // CommCostPerParallelism · k
}

// opRates are one operator's per-tick rates: the values of the last live
// tick in Engine.last, their sums over the window in windowAccum.ops.
type opRates struct {
	trueRate float64 // per instance, busy-time based
	observed float64 // per instance, including waiting
	lambda   float64 // total arrival rate
}

// engineMetrics caches the engine's store handles. Each is resolved on
// first use — the series on the first recorded tick, a counter on the
// first rescale or retry, so a store lists only what has happened — and
// then appended to or incremented directly: no tag map, no registry
// lookup on the tick path.
type engineMetrics struct {
	throughput, latency, eventLatency, lag *metrics.Series
	ops                                    []operatorSeries
	rescales, retries                      *metrics.Counter
}

// operatorSeries are one operator's per-tick series.
type operatorSeries struct{ trueRate, observed, input *metrics.Series }

type windowAccum struct {
	ticks          int
	throughput     float64
	procLatency    float64
	eventLatency   float64
	cpuUsed        float64
	ops            []opRates
	latencySamples []float64
}

// Measurement is a measurement window's scalar summary — what the
// Monitor/Analyze stages hand to the policies. It holds no reference into
// the engine, so later ticks, resets and rescales never change one
// already handed out. The per-operator detail only planners read comes
// from Engine.OperatorRates.
type Measurement struct {
	WindowSec     float64
	InputRateRPS  float64 // scheduled input rate at measurement end
	ThroughputRPS float64 // mean source consumption rate
	ProcLatencyMS float64 // mean processing latency
	EventLatMS    float64 // mean event-time latency (incl. Kafka pending)
	LagRecords    float64 // lag at measurement end
	// CPUUsedCores / MemUsedMB for resource accounting.
	CPUUsedCores float64
	MemUsedMB    float64
	// LatencySamples holds one per-record processing latency per measured
	// tick of a MeasureSteadySampled window (Fig. 8b); nil otherwise.
	LatencySamples []float64
}

// OperatorRates is a measurement window's per-operator detail: the
// configuration it ran and the mean rates Eq. 3, DS2 and DRS plan from.
// Engine.OperatorRates fills it into the caller's slices.
type OperatorRates struct {
	Par dataflow.ParallelismVector
	// TrueRatePerInstance[i] is v̄_i: the mean busy-time processing rate
	// of one instance of operator i (op-input records/s).
	TrueRatePerInstance []float64
	// ObservedRatePerInstance[i] includes waiting time (actual records
	// processed per wall second per instance).
	ObservedRatePerInstance []float64
	// LambdaRPS[i] is the total arrival rate at operator i.
	LambdaRPS []float64
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil || cfg.Cluster == nil || cfg.Topic == nil {
		return nil, errors.New("flink: Graph, Cluster and Topic are required")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	if s := len(cfg.Graph.Sources()); s != 1 {
		return nil, fmt.Errorf("flink: engine supports exactly one source operator, got %d", s)
	}
	n := cfg.Graph.NumOperators()
	tick := cfg.TickSec
	if tick <= 0 {
		tick = 1
	}
	down := cfg.RestartDowntimeSec
	if down == 0 {
		down = 10
	}
	noise := rateNoiseStdDev
	if cfg.NoNoise {
		noise = 0
	}
	name := cfg.JobName
	if name == "" {
		name = cfg.Graph.Name
	}
	par := cfg.InitialParallelism
	if par == nil {
		par = dataflow.Uniform(n, 1)
	}
	if err := checkParallelism(par, cfg.Graph, cfg.Cluster); err != nil {
		return nil, err
	}
	attempts := cfg.RescaleMaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	backoff := cfg.RescaleBackoffSec
	if backoff <= 0 {
		backoff = 5
	}
	deadline := cfg.RescaleDeadlineSec
	if deadline <= 0 {
		deadline = 120
	}
	e := &Engine{
		graph:              cfg.Graph,
		cluster:            cfg.Cluster,
		topic:              cfg.Topic,
		store:              cfg.Store,
		tracer:             cfg.Tracer,
		chaos:              cfg.Chaos,
		jobName:            name,
		rng:                *stat.NewRNG(cfg.Seed ^ 0x9d5c_1fd3_0b77_4c2b),
		tickSec:            tick,
		downtimeSec:        down,
		rateNoise:          noise,
		rescaleMaxAttempts: attempts,
		rescaleBackoffSec:  backoff,
		rescaleDeadlineSec: deadline,
		par:                par.Clone(),
		plan:               make([]opPlan, n),
		last:               make([]opRates, n),
		lastUtil:           make([]float64, n),
	}
	e.win.ops = make([]opRates, n)
	for i := range e.plan {
		e.plan[i].arrivalFac = cfg.Graph.ArrivalFactor(i)
	}
	e.compile()
	e.resetWindow()
	return e, nil
}

// checkParallelism requires one entry per operator — the compiled plan
// indexes the vector, so a short one must fail here, not in Tick — each
// within the cluster's ceiling.
func checkParallelism(p dataflow.ParallelismVector, g *dataflow.Graph, c *cluster.Cluster) error {
	if n := g.NumOperators(); len(p) != n {
		return fmt.Errorf("flink: parallelism has %d entries, graph has %d operators", len(p), n)
	}
	return p.Validate(c.MaxParallelism())
}

// compile rebuilds the plan for the active parallelism. arrivalFac
// depends on the graph alone: New copies it from the graph, which
// computed it once, at Validate.
func (e *Engine) compile() {
	e.memUsedMB = 0
	for i := range e.plan {
		p := e.graph.Operator(i).Profile
		k := float64(e.par[i])
		pl := &e.plan[i]
		pl.k = k
		pl.baseRate = p.BaseRatePerInstance / (1 + p.SyncCost*(k-1) + p.CrossCost*k*(k-1))
		pl.extCapRPS = p.ExternalCapRPS
		pl.extCapPerInst = p.ExternalCapRPS / k
		pl.cpuCores = k * p.CPUPerInstance
		pl.fixedLatMS = p.FixedLatencyMS
		pl.queueScaleMS = p.QueueScaleMS
		pl.maxCongestion = p.MaxCongestion
		if pl.maxCongestion == 0 {
			pl.maxCongestion = 25
		}
		pl.stateLatMS = p.StateCostMS / k
		pl.commLatMS = p.CommCostPerParallelism * k
		e.memUsedMB += k * p.MemPerInstanceMB
	}
}

// Graph returns the job graph.
func (e *Engine) Graph() *dataflow.Graph { return e.graph }

// Cluster returns the cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Topic returns the source topic.
func (e *Engine) Topic() *kafka.Topic { return e.topic }

// JobName returns the metric tag for this job.
func (e *Engine) JobName() string { return e.jobName }

// Store returns the metrics store the engine records into (nil when
// metrics are disabled).
func (e *Engine) Store() *metrics.Store { return e.store }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.nowSec }

// Restarts returns how many reconfigurations have happened.
func (e *Engine) Restarts() int { return e.restarts }

// RNGState returns the measurement-noise generator's stream position —
// persisted so a restored engine draws the same noise sequence a
// continued run would.
func (e *Engine) RNGState() uint64 { return e.rng.State() }

// RestoreRNGState repositions the measurement-noise generator; the
// inverse of RNGState.
func (e *Engine) RestoreRNGState(s uint64) { e.rng.SetState(s) }

// RestoreRestarts sets the reconfiguration counter — restored engines
// carry the pre-snapshot count forward so observability surfaces keep
// monotonic restart totals.
func (e *Engine) RestoreRestarts(n int) {
	if n > e.restarts {
		e.restarts = n
	}
}

// Parallelism returns the active configuration.
func (e *Engine) Parallelism() dataflow.ParallelismVector { return e.par.Clone() }

// ParallelismText is the active configuration as its String method
// renders it. The text is formatted on the first call after a rescale and
// kept until the next one, so a traced steady job formats its vector once,
// not once per window, and an untraced engine never formats it.
func (e *Engine) ParallelismText() string {
	if e.parText == "" {
		e.parText = e.par.String()
	}
	return e.parText
}

// AppendParallelism appends the active configuration to dst and returns
// the extended vector: Parallelism into storage the caller owns.
func (e *Engine) AppendParallelism(dst dataflow.ParallelismVector) dataflow.ParallelismVector {
	return append(dst, e.par...)
}

// SetParallelism reconfigures the job. If the configuration changes, the
// job incurs the savepoint/restart downtime and the measurement window
// resets (§IV: metrics during restart are ignored).
//
// Under fault injection a rescale attempt may fail; the engine then
// retries with exponential backoff (burning simulated time, during
// which the job keeps running on the old configuration) until the
// attempt budget or deadline is exhausted, at which point it returns an
// error wrapping ErrRescaleFailed and leaves the configuration — the
// last-known-good one — unchanged. Each retry increments the
// rescale_retries counter and, when tracing, emits a
// flink.rescale_attempt span.
func (e *Engine) SetParallelism(p dataflow.ParallelismVector) error {
	if err := checkParallelism(p, e.graph, e.cluster); err != nil {
		return err
	}
	if p.Equal(e.par) {
		return nil
	}
	backoff := e.rescaleBackoffSec
	deadline := e.nowSec + e.rescaleDeadlineSec
	for attempt := 1; ; attempt++ {
		if !e.chaos.FailRescale() {
			e.applyRescale(p, attempt)
			return nil
		}
		// Attempt failed: count the retry, back off in simulated time,
		// and try again — unless the budget or the deadline is spent.
		e.count(&e.met.retries, "rescale_retries")
		exhausted := attempt >= e.rescaleMaxAttempts || e.nowSec+backoff > deadline
		if e.tracer.Enabled() {
			sp := e.tracer.StartSpan("flink.rescale_attempt")
			sp.SetFloat("t_sec", e.nowSec)
			sp.SetStr("to", p.String())
			sp.SetInt("attempt", attempt)
			sp.SetBool("ok", false)
			sp.SetBool("gave_up", exhausted)
			sp.SetFloat("backoff_sec", backoff)
			sp.End()
		}
		if e.tracer.FlightEnabled() {
			e.tracer.Emit(trace.Record{
				TimeSec: e.nowSec,
				Kind:    trace.KindRescaleAttempt,
				Job:     e.jobName,
				Attrs: map[string]any{
					"to":      p.String(),
					"attempt": attempt,
					"ok":      false,
					"gave_up": exhausted,
				},
			})
		}
		if exhausted {
			return fmt.Errorf("%w: %s after %d attempt(s)", ErrRescaleFailed, p, attempt)
		}
		e.Run(backoff)
		backoff *= 2
	}
}

// applyRescale commits a successful rescale attempt: trace, count,
// switch configuration and start the savepoint/restart outage (plus any
// injected slow-savepoint delay).
func (e *Engine) applyRescale(p dataflow.ParallelismVector, attempt int) {
	down := e.downtimeSec + e.chaos.RescaleDelaySec()
	if e.tracer.Enabled() {
		sp := e.tracer.StartSpan("flink.rescale")
		sp.SetFloat("t_sec", e.nowSec)
		sp.SetStr("from", e.par.String())
		sp.SetStr("to", p.String())
		sp.SetInt("slots_delta", p.Total()-e.par.Total())
		sp.SetInt("attempt", attempt)
		sp.SetFloat("downtime_sec", down)
		sp.End()
	}
	if e.tracer.FlightEnabled() {
		e.tracer.Emit(trace.Record{
			TimeSec: e.nowSec,
			Kind:    trace.KindRescale,
			Job:     e.jobName,
			Attrs: map[string]any{
				"from":         e.par.String(),
				"to":           p.String(),
				"attempt":      attempt,
				"downtime_sec": down,
			},
		})
	}
	e.count(&e.met.rescales, "flink.rescales")
	copy(e.par, p)
	e.parText = ""
	e.compile()
	e.restartUntil = e.nowSec + down
	e.restarts++
	e.resetWindow()
}

// resetWindow zeroes the accumulators in place.
func (e *Engine) resetWindow() {
	ops := e.win.ops
	clear(ops)
	e.win = windowAccum{ops: ops, latencySamples: e.win.latencySamples[:0]}
}

// ResetWindow clears the measurement accumulators without reconfiguring —
// used to discard warm-up samples.
func (e *Engine) ResetWindow() { e.resetWindow() }

// noiseFactor returns a multiplicative jitter around 1.
func (e *Engine) noiseFactor() float64 {
	if e.rateNoise == 0 {
		return 1
	}
	f := 1 + e.rng.NormalMS(0, e.rateNoise)
	if f < 0.5 {
		f = 0.5
	}
	if f > 1.5 {
		f = 1.5
	}
	return f
}

// Tick advances the simulation by one step. It reads the compiled plan
// and writes into engine-owned buffers, so it allocates nothing — live or
// down, with or without a store or an injector.
//
// Two rules keep a run bit-identical to the straightforward model that
// recomputes everything from the graph each tick (the test-only
// reference in reference_test.go): floating-point expressions keep their
// evaluation order — a plan field only ever replaces a sub-expression
// that was already evaluated as a unit — and every RNG draw stays where
// it was: one rate-noise normal per operator in index order, one latency
// normal, one latency-sample normal (exponentiated and kept only in a
// sampled window); none on a down tick, not the last on a dropped tick.
func (e *Engine) Tick() {
	if e.chaos.Enabled() {
		e.applyChaosSchedules()
	}
	dt := e.tickSec
	e.topic.Produce(e.nowSec, dt)
	e.nowSec += dt

	if e.nowSec <= e.restartUntil {
		// Job is down for savepoint/restart: nothing is consumed, lag
		// grows, no metrics are recorded (the paper ignores metrics
		// during the restart phase).
		e.lastThroughput = 0
		return
	}

	// CPU demand (core-equivalents) the configuration places on the
	// cluster, weighted by each operator's utilization from the previous
	// tick: a busy instance burns its full CPUPerInstance, an idle one
	// only its polling floor (~10%). Coming out of a restart (or before
	// the first tick) the conservative assumption is fully-busy.
	// Utilization lags one tick, which acts as a damped fixed-point
	// iteration for the circular demand→interference→capacity→utilization
	// dependency.
	plan, last, util := e.plan, e.last, e.lastUtil
	warm := e.lastThroughput > 0
	var demand float64
	for i := range plan {
		u := 1.0
		if warm {
			u = clampUtil(util[i])
		}
		demand += plan[i].cpuCores * u
	}
	interference := e.cluster.InterferenceFactor(demand)

	// Capacity per operator in op-input records/s, and the job bottleneck
	// expressed in source records/s.
	capSource := math.Inf(1)
	for i := range plan {
		pl := &plan[i]
		// True per-instance rate: the USL curve scaled by interference,
		// with the operator's total rate capped by its external system.
		r := pl.baseRate * interference
		if pl.extCapRPS > 0 && r*pl.k > pl.extCapRPS {
			r = pl.extCapPerInst
		}
		r *= e.noiseFactor()
		last[i].trueRate = r
		if pl.arrivalFac > 0 {
			if c := r * pl.k / pl.arrivalFac; c < capSource {
				capSource = c
			}
		}
	}

	// Source pulls min(bottleneck capacity, available) from Kafka.
	pulled := e.topic.Consume(capSource * dt)
	throughput := pulled / dt

	// Arrivals, utilizations, latency, cores in use.
	var procLatency, cpuUsed float64
	for i := range plan {
		pl, op := &plan[i], &last[i]
		lambda := throughput * pl.arrivalFac
		totalCap := op.trueRate * pl.k
		processed := lambda
		if processed > totalCap {
			processed = totalCap
		}
		u := 0.0
		if totalCap > 0 {
			u = lambda / totalCap
		}
		op.lambda = lambda
		op.observed = processed / pl.k
		util[i] = u

		// Latency: fixed + service + queueing + state + communication.
		lat := pl.fixedLatMS
		if op.trueRate > 0 {
			lat += 1000 / op.trueRate // service time of one record
		}
		if pl.queueScaleMS > 0 && u > 0 {
			// Credit-based backpressure bounds standing queues, so the
			// M/M/1-style congestion factor saturates at the operator's
			// buffer budget instead of diverging.
			f := pl.maxCongestion
			if u < 1 {
				f = u / (1 - u)
				if f > pl.maxCongestion {
					f = pl.maxCongestion
				}
			}
			lat += pl.queueScaleMS * f
		}
		lat += pl.stateLatMS
		lat += pl.commLatMS
		procLatency += lat

		// Busy instances burn their full CPUPerInstance scaled by
		// utilization, idle slots still poll.
		cpuUsed += pl.cpuCores * clampUtil(u)
	}
	if e.rateNoise > 0 {
		procLatency *= e.noiseFactor()
	}

	pending := e.topic.PendingTimeSec(throughput)
	eventLatency := procLatency
	if math.IsInf(pending, 1) {
		eventLatency = math.MaxFloat64
	} else {
		eventLatency += pending * 1000
	}
	e.lastThroughput = throughput

	// Accumulate window stats. Fault injection may drop the tick from
	// the measurement window (reporter outage) or corrupt the measured
	// values by a multiplicative factor (sensor fault) — the simulated
	// system itself is unaffected, only what the policies observe.
	drop, corrupt := false, 1.0
	if e.chaos.Enabled() {
		drop, corrupt = e.chaos.WindowFault()
	}
	if drop {
		return
	}
	w := &e.win
	w.ticks++
	w.throughput += throughput * corrupt
	w.procLatency += procLatency * corrupt
	w.eventLatency += eventLatency * corrupt
	w.cpuUsed += cpuUsed
	for i := range last {
		sum, op := &w.ops[i], &last[i]
		sum.trueRate += op.trueRate * corrupt
		sum.observed += op.observed * corrupt
		sum.lambda += op.lambda * corrupt
	}
	// One log-normal latency sample per tick. Its normal is drawn even
	// when the window keeps no sample: the stream ignores who measures.
	var z float64
	if e.rateNoise > 0 {
		z = e.rng.NormalMS(0, 0.2)
	}
	if e.sampling {
		w.latencySamples = append(w.latencySamples, procLatency*corrupt*math.Exp(z))
	}

	if e.store != nil {
		e.recordMetrics(throughput, procLatency, eventLatency)
	}
}

// clampUtil bounds a utilization to [idle polling floor, fully busy] for
// CPU accounting.
func clampUtil(u float64) float64 {
	const idleFloor = 0.1
	if u < idleFloor {
		return idleFloor
	}
	if u > 1 {
		return 1
	}
	return u
}

// applyChaosSchedules fires the injector's scheduled faults that are
// due at the current simulated time: machine kills/recoveries and
// partition-stall windows. Events naming no machine pick their victim
// deterministically from the cluster's sorted machine names, so the
// same schedule and seed always hit the same machines. An event the
// cluster refuses (e.g. killing the last machine) is skipped, never
// fatal.
func (e *Engine) applyChaosSchedules() {
	e.topic.SetStalledFraction(e.chaos.StallFraction(e.nowSec))
	for _, ev := range e.chaos.DueMachineEvents(e.nowSec) {
		name := ev.Machine
		if name == "" {
			name = e.chaosVictim(ev.Down)
		}
		if name == "" {
			continue
		}
		var err error
		if ev.Down {
			err = e.FailMachine(name)
		} else {
			err = e.RecoverMachine(name)
		}
		if err == nil && e.tracer.FlightEnabled() {
			rec := trace.Record{
				TimeSec: e.nowSec,
				Kind:    trace.KindChaosMachine,
				Job:     e.jobName,
				Attrs:   map[string]any{"machine": name, "down": ev.Down},
			}
			// A kill firing between controller steps has no decision in
			// flight; mint a chain key so the event never lands on corr 0
			// (audit treats corr 0 as "unattributable").
			if e.tracer.Corr() == 0 {
				rec.Corr = e.tracer.NewCorr()
			}
			e.tracer.Emit(rec)
		}
		if err != nil && e.tracer.Enabled() {
			sp := e.tracer.StartSpan("flink.chaos_event_skipped")
			sp.SetFloat("t_sec", e.nowSec)
			sp.SetStr("machine", name)
			sp.SetBool("down", ev.Down)
			sp.SetStr("error", err.Error())
			sp.End()
		}
	}
}

// chaosVictim selects the machine a scheduled event targets when the
// schedule names none: the first up machine in sorted-name order for a
// kill (never the last one standing), the first down machine for a
// recovery.
func (e *Engine) chaosVictim(down bool) string {
	if down {
		up := e.cluster.UpMachineNames()
		if len(up) < 2 {
			return ""
		}
		return up[0]
	}
	if d := e.cluster.DownMachineNames(); len(d) > 0 {
		return d[0]
	}
	return ""
}

// recordMetrics appends the tick just computed to the store's series.
func (e *Engine) recordMetrics(throughput, procLat, eventLat float64) {
	m := &e.met
	if m.ops == nil {
		e.resolveSeries()
	}
	m.throughput.MustAppend(e.nowSec, throughput)
	m.latency.MustAppend(e.nowSec, procLat)
	m.eventLatency.MustAppend(e.nowSec, eventLat)
	m.lag.MustAppend(e.nowSec, e.topic.Lag())
	for i := range m.ops {
		op, v := &m.ops[i], &e.last[i]
		op.trueRate.MustAppend(e.nowSec, v.trueRate)
		op.observed.MustAppend(e.nowSec, v.observed)
		op.input.MustAppend(e.nowSec, v.lambda)
	}
}

// resolveSeries resolves the per-tick series handles (job-level and one
// triple per operator).
func (e *Engine) resolveSeries() {
	m := &e.met
	jobTags := map[string]string{"job": e.jobName}
	m.throughput = e.store.Series(metrics.MetricThroughput, jobTags)
	m.latency = e.store.Series(metrics.MetricLatencyMS, jobTags)
	m.eventLatency = e.store.Series(metrics.MetricEventTimeLatencyMS, jobTags)
	m.lag = e.store.Series(metrics.MetricKafkaLag, jobTags)
	m.ops = make([]operatorSeries, e.graph.NumOperators())
	for i := range m.ops {
		opTags := map[string]string{
			"job":      e.jobName,
			"operator": e.graph.Operator(i).Name,
		}
		m.ops[i] = operatorSeries{
			trueRate: e.store.Series(metrics.MetricTrueProcessingRate, opTags),
			observed: e.store.Series(metrics.MetricObservedRate, opTags),
			input:    e.store.Series(metrics.MetricInputRate, opTags),
		}
	}
}

// count increments the job-tagged counter cached in slot, resolving it
// on first use; a no-op without a store.
func (e *Engine) count(slot **metrics.Counter, name string) {
	if e.store == nil {
		return
	}
	if *slot == nil {
		*slot = e.store.Counter(name, map[string]string{"job": e.jobName})
	}
	(*slot).Inc()
}

// Run advances the simulation by the given number of seconds.
func (e *Engine) Run(seconds float64) {
	steps := int(seconds/e.tickSec + 0.5)
	for i := 0; i < steps; i++ {
		e.Tick()
	}
}

// Measure aggregates the accumulated window into its summary. It does
// not reset the window, and it allocates only the latency samples of a
// sampled window.
func (e *Engine) Measure() Measurement {
	m := Measurement{
		InputRateRPS: e.topic.InputRateAt(e.nowSec),
		LagRecords:   e.topic.Lag(),
		MemUsedMB:    e.memUsedMB,
	}
	w := &e.win
	if w.ticks == 0 {
		return m
	}
	t := float64(w.ticks)
	m.WindowSec = t * e.tickSec
	m.ThroughputRPS = w.throughput / t
	m.ProcLatencyMS = w.procLatency / t
	m.EventLatMS = w.eventLatency / t
	m.CPUUsedCores = w.cpuUsed / t
	m.LatencySamples = append([]float64(nil), w.latencySamples...)
	return m
}

// OperatorRates fills dst with the accumulated window's per-operator
// means and the active configuration, reusing dst's slices: a planner
// that keeps one value allocates once. Like Measure it does not reset
// the window, so right after Measure it describes the same window; a
// window without live ticks reads zero rates.
func (e *Engine) OperatorRates(dst *OperatorRates) {
	n := len(e.plan)
	dst.Par = e.AppendParallelism(dst.Par[:0])
	dst.TrueRatePerInstance = resize(dst.TrueRatePerInstance, n)
	dst.ObservedRatePerInstance = resize(dst.ObservedRatePerInstance, n)
	dst.LambdaRPS = resize(dst.LambdaRPS, n)
	w := &e.win
	if w.ticks == 0 {
		return
	}
	t := float64(w.ticks)
	for i := range w.ops {
		sum := &w.ops[i]
		dst.TrueRatePerInstance[i] = sum.trueRate / t
		dst.ObservedRatePerInstance[i] = sum.observed / t
		dst.LambdaRPS[i] = sum.lambda / t
	}
}

// resize returns s at length n with every element zero, reusing its
// storage when it has room.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FailMachine takes a worker machine down: its slots fail over to the
// surviving machines (capacity shrinks, oversubscription-driven
// interference rises) and the job incurs a restart while Flink
// redeploys. Recover with RecoverMachine.
func (e *Engine) FailMachine(name string) error {
	if err := e.cluster.SetMachineDown(name, true); err != nil {
		return err
	}
	e.traceMachineEvent("flink.machine_fail", name)
	e.restartUntil = e.nowSec + e.downtimeSec
	e.restarts++
	e.resetWindow()
	return nil
}

// RecoverMachine brings a failed machine back; the job restarts once more
// as slots rebalance.
func (e *Engine) RecoverMachine(name string) error {
	if err := e.cluster.SetMachineDown(name, false); err != nil {
		return err
	}
	e.traceMachineEvent("flink.machine_recover", name)
	e.restartUntil = e.nowSec + e.downtimeSec
	e.restarts++
	e.resetWindow()
	return nil
}

// traceMachineEvent records a machine up/down transition.
func (e *Engine) traceMachineEvent(name, machine string) {
	if !e.tracer.Enabled() {
		return
	}
	sp := e.tracer.StartSpan(name)
	sp.SetFloat("t_sec", e.nowSec)
	sp.SetStr("machine", machine)
	sp.SetInt("max_parallelism", e.cluster.MaxParallelism())
	sp.End()
}

// SeekToLatest drops the source backlog (consumer jumps to the log head)
// and returns the number of records skipped. Trial-based evaluation uses
// this so each configuration is measured at steady state for the current
// input rate rather than while draining history from previous trials.
func (e *Engine) SeekToLatest() float64 {
	return e.topic.SeekToLatest()
}

// RunAndMeasure is the "policy running time" primitive from §IV: run a
// warm-up, reset the window, run the measurement phase, and return the
// aggregate.
func (e *Engine) RunAndMeasure(warmupSec, measureSec float64) Measurement {
	e.Run(warmupSec)
	e.resetWindow()
	e.Run(measureSec)
	m := e.Measure()
	e.traceWindow("flink.measure_window", warmupSec, measureSec, m)
	return m
}

// MeasureSteady evaluates the *steady-state* QoS of the current
// configuration: run the warm-up (absorbing any restart downtime), drop
// the backlog accumulated so far, then measure a clean window. This is
// how trial-based policies (Algorithm 1/2, DRS, DS2 offline) judge a
// candidate configuration without penalizing it for history it did not
// cause. The warm-up must exceed the restart downtime.
func (e *Engine) MeasureSteady(warmupSec, measureSec float64) Measurement {
	return e.measureSteady(warmupSec, measureSec, false)
}

// MeasureSteadySampled is MeasureSteady that also keeps one per-record
// latency sample per measured tick in Measurement.LatencySamples (Fig.
// 8b). Every other field, and the RNG stream, match MeasureSteady's.
func (e *Engine) MeasureSteadySampled(warmupSec, measureSec float64) Measurement {
	return e.measureSteady(warmupSec, measureSec, true)
}

func (e *Engine) measureSteady(warmupSec, measureSec float64, sampled bool) Measurement {
	e.Run(warmupSec)
	e.SeekToLatest()
	e.resetWindow()
	e.sampling = sampled
	e.Run(measureSec)
	m := e.Measure()
	e.sampling, e.win.latencySamples = false, nil
	e.traceWindow("flink.measure_steady", warmupSec, measureSec, m)
	return m
}

// traceWindow records a completed measurement window as a span.
func (e *Engine) traceWindow(name string, warmupSec, measureSec float64, m Measurement) {
	if !e.tracer.Enabled() {
		return
	}
	sp := e.tracer.StartSpan(name)
	sp.SetFloat("t_sec", e.nowSec)
	sp.SetStr("par", e.ParallelismText())
	sp.SetFloat("warmup_sec", warmupSec)
	sp.SetFloat("measure_sec", measureSec)
	sp.SetFloat("throughput_rps", m.ThroughputRPS)
	sp.SetFloat("latency_ms", m.ProcLatencyMS)
	sp.SetFloat("lag_records", m.LagRecords)
	sp.End()
}
