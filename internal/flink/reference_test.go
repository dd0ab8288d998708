package flink

import (
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/metrics"
)

// Reference is the simulator's tick written the straightforward way —
// every quantity recomputed from the graph on every tick, fresh slices
// per tick and per window, one helper per term of the performance model.
// It is the specification the compiled Engine.Tick must reproduce bit
// for bit (differential_test.go drives the two side by side).
//
// A Reference owns everything a tick computes: the previous tick's
// throughput and utilizations, the window accumulators, the
// aggregation. It borrows from an Engine only what a tick does not
// compute — configuration, clock, topic, RNG, injector, and the rescale
// and machine-failure bookkeeping — and never calls that engine's Tick,
// Run or Measure.
type Reference struct {
	e *Engine

	lastThroughput float64
	lastUtil       []float64
	lastLambda     []float64
	win            refWindow
}

type refWindow struct {
	ticks          int
	throughput     float64
	procLatency    float64
	eventLatency   float64
	cpuUsed        float64
	trueRates      []float64
	observed       []float64
	lambda         []float64
	latencySamples []float64
}

// NewReference builds a reference simulator for the configuration.
func NewReference(cfg Config) (*Reference, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := &Reference{e: e}
	r.ResetWindow()
	return r, nil
}

// Now returns the current simulation time in seconds.
func (r *Reference) Now() float64 { return r.e.nowSec }

// RNGState returns the measurement-noise generator's stream position.
func (r *Reference) RNGState() uint64 { return r.e.rng.State() }

// Lag returns the source topic's lag.
func (r *Reference) Lag() float64 { return r.e.topic.Lag() }

// Restarts returns how many reconfigurations have happened.
func (r *Reference) Restarts() int { return r.e.restarts }

// ResetWindow clears the measurement accumulators.
func (r *Reference) ResetWindow() {
	n := r.e.graph.NumOperators()
	r.win = refWindow{
		trueRates: make([]float64, n),
		observed:  make([]float64, n),
		lambda:    make([]float64, n),
	}
}

// perInstanceRate returns the true per-instance processing rate of
// operator i under the current configuration and cluster interference
// factor, in op-input records/s, without measurement noise.
func (r *Reference) perInstanceRate(i int, interference float64) float64 {
	op := r.e.graph.Operator(i)
	k := float64(r.e.par[i])
	p := op.Profile
	usl := 1 + p.SyncCost*(k-1) + p.CrossCost*k*(k-1)
	rate := p.BaseRatePerInstance / usl * interference
	if p.ExternalCapRPS > 0 {
		total := rate * k
		if total > p.ExternalCapRPS {
			rate = p.ExternalCapRPS / k
		}
	}
	return rate
}

// cpuDemand is the CPU demand (core-equivalents) the configuration places
// on the cluster, weighted by each operator's utilization from the
// previous tick: a busy instance burns its full CPUPerInstance, an idle
// one only its polling floor (~10%). Before the first measurement the
// conservative assumption is fully-busy.
func (r *Reference) cpuDemand() float64 {
	const idleFloor = 0.1
	e := r.e
	var d float64
	for i := 0; i < e.graph.NumOperators(); i++ {
		u := 1.0
		if len(r.lastUtil) == e.graph.NumOperators() && r.lastThroughput > 0 {
			u = r.lastUtil[i]
			if u < idleFloor {
				u = idleFloor
			}
			if u > 1 {
				u = 1
			}
		}
		d += float64(e.par[i]) * e.graph.Operator(i).Profile.CPUPerInstance * u
	}
	return d
}

// operatorLatencyMS returns the latency contribution of operator i:
// fixed + service + queueing + communication cost.
func (r *Reference) operatorLatencyMS(i int, perInstRate, util float64) float64 {
	p := r.e.graph.Operator(i).Profile
	lat := p.FixedLatencyMS
	if perInstRate > 0 {
		lat += 1000 / perInstRate // service time of one record
	}
	if p.QueueScaleMS > 0 && util > 0 {
		// Credit-based backpressure bounds standing queues, so the
		// M/M/1-style congestion factor saturates at the operator's
		// buffer budget instead of diverging.
		maxCongestion := p.MaxCongestion
		if maxCongestion == 0 {
			maxCongestion = 25
		}
		u := util
		if u > 1 {
			u = 1
		}
		f := maxCongestion
		if u < 1 {
			f = u / (1 - u)
			if f > maxCongestion {
				f = maxCongestion
			}
		}
		lat += p.QueueScaleMS * f
	}
	if p.StateCostMS > 0 {
		lat += p.StateCostMS / float64(r.e.par[i])
	}
	lat += p.CommCostPerParallelism * float64(r.e.par[i])
	return lat
}

// cpuUsed estimates cores in use: busy instances burn their full
// CPUPerInstance scaled by utilization, idle slots still poll (~10%).
func (r *Reference) cpuUsed(util []float64) float64 {
	var used float64
	for i := 0; i < r.e.graph.NumOperators(); i++ {
		p := r.e.graph.Operator(i).Profile
		u := util[i]
		if u < 0.1 {
			u = 0.1
		}
		if u > 1 {
			u = 1
		}
		used += float64(r.e.par[i]) * p.CPUPerInstance * u
	}
	return used
}

// Tick advances the simulation by one step.
func (r *Reference) Tick() {
	e := r.e
	if e.chaos.Enabled() {
		// A scheduled machine event restarts the job, which resets the
		// measurement window.
		before := e.restarts
		e.applyChaosSchedules()
		if e.restarts != before {
			r.ResetWindow()
		}
	}
	dt := e.tickSec
	e.topic.Produce(e.nowSec, dt)
	e.nowSec += dt

	n := e.graph.NumOperators()
	if e.nowSec <= e.restartUntil {
		// Job is down for savepoint/restart: nothing is consumed, lag
		// grows, no metrics are recorded.
		r.lastThroughput = 0
		return
	}

	interference := e.cluster.InterferenceFactor(r.cpuDemand())

	// Capacity per operator in op-input records/s, and the job bottleneck
	// expressed in source records/s.
	arrivalFac := referenceArrivalFactors(e.graph)
	trueRates := make([]float64, n) // per instance
	capSource := math.Inf(1)
	for i := 0; i < n; i++ {
		rate := r.perInstanceRate(i, interference) * e.noiseFactor()
		trueRates[i] = rate
		total := rate * float64(e.par[i])
		if arrivalFac[i] > 0 {
			if c := total / arrivalFac[i]; c < capSource {
				capSource = c
			}
		}
	}

	// Source pulls min(bottleneck capacity, available) from Kafka.
	pulled := e.topic.Consume(capSource * dt)
	throughput := pulled / dt

	// Arrivals, utilizations, latency.
	lambda := make([]float64, n)
	observed := make([]float64, n)
	util := make([]float64, n)
	var procLatency float64
	for i := 0; i < n; i++ {
		lambda[i] = throughput * arrivalFac[i]
		totalCap := trueRates[i] * float64(e.par[i])
		processed := lambda[i]
		if processed > totalCap {
			processed = totalCap
		}
		observed[i] = processed / float64(e.par[i])
		if totalCap > 0 {
			util[i] = lambda[i] / totalCap
		}
		procLatency += r.operatorLatencyMS(i, trueRates[i], util[i])
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

	cpuUsed := r.cpuUsed(util)

	r.lastThroughput = throughput
	r.lastLambda = lambda
	r.lastUtil = util

	// Accumulate window stats. Fault injection may drop the tick from
	// the measurement window or corrupt the measured values by a
	// multiplicative factor.
	drop, corrupt := false, 1.0
	if e.chaos.Enabled() {
		drop, corrupt = e.chaos.WindowFault()
	}
	if drop {
		return
	}
	w := &r.win
	w.ticks++
	w.throughput += throughput * corrupt
	w.procLatency += procLatency * corrupt
	w.eventLatency += eventLatency * corrupt
	w.cpuUsed += cpuUsed
	for i := 0; i < n; i++ {
		w.trueRates[i] += trueRates[i] * corrupt
		w.observed[i] += observed[i] * corrupt
		w.lambda[i] += lambda[i] * corrupt
	}
	// One per-record latency sample per tick keeps distributions cheap.
	sample := procLatency * corrupt
	if e.rateNoise > 0 {
		sample *= e.rng.LogNormal(0, 0.2)
	}
	w.latencySamples = append(w.latencySamples, sample)

	r.recordMetrics(trueRates, observed, throughput, procLatency, eventLatency)
}

// recordMetrics writes the tick's series through the store's by-name
// path, tag maps and all.
func (r *Reference) recordMetrics(trueRates, observed []float64, throughput, procLat, eventLat float64) {
	e := r.e
	if e.store == nil {
		return
	}
	jobTags := map[string]string{"job": e.jobName}
	e.store.MustRecord(metrics.MetricThroughput, jobTags, e.nowSec, throughput)
	e.store.MustRecord(metrics.MetricLatencyMS, jobTags, e.nowSec, procLat)
	e.store.MustRecord(metrics.MetricEventTimeLatencyMS, jobTags, e.nowSec, eventLat)
	e.store.MustRecord(metrics.MetricKafkaLag, jobTags, e.nowSec, e.topic.Lag())
	for i := 0; i < e.graph.NumOperators(); i++ {
		opTags := map[string]string{"job": e.jobName, "operator": e.graph.Operator(i).Name}
		e.store.MustRecord(metrics.MetricTrueProcessingRate, opTags, e.nowSec, trueRates[i])
		e.store.MustRecord(metrics.MetricObservedRate, opTags, e.nowSec, observed[i])
		e.store.MustRecord(metrics.MetricInputRate, opTags, e.nowSec, r.lastLambda[i])
	}
}

// Run advances the simulation by the given number of seconds.
func (r *Reference) Run(seconds float64) {
	steps := int(seconds/r.e.tickSec + 0.5)
	for i := 0; i < steps; i++ {
		r.Tick()
	}
}

// Measure aggregates the accumulated window into its summary and its
// per-operator detail, the pair Engine.Measure and Engine.OperatorRates
// return. It does not reset the window.
func (r *Reference) Measure() (Measurement, OperatorRates) {
	e := r.e
	n := e.graph.NumOperators()
	var mem float64
	for i := 0; i < n; i++ {
		mem += float64(e.par[i]) * e.graph.Operator(i).Profile.MemPerInstanceMB
	}
	m := Measurement{
		InputRateRPS: e.topic.InputRateAt(e.nowSec),
		LagRecords:   e.topic.Lag(),
		MemUsedMB:    mem,
	}
	ops := OperatorRates{
		Par:                     e.par.Clone(),
		TrueRatePerInstance:     make([]float64, n),
		ObservedRatePerInstance: make([]float64, n),
		LambdaRPS:               make([]float64, n),
	}
	w := &r.win
	if w.ticks == 0 {
		return m, ops
	}
	t := float64(w.ticks)
	m.WindowSec = t * e.tickSec
	m.ThroughputRPS = w.throughput / t
	m.ProcLatencyMS = w.procLatency / t
	m.EventLatMS = w.eventLatency / t
	m.CPUUsedCores = w.cpuUsed / t
	for i := 0; i < n; i++ {
		ops.TrueRatePerInstance[i] = w.trueRates[i] / t
		ops.ObservedRatePerInstance[i] = w.observed[i] / t
		ops.LambdaRPS[i] = w.lambda[i] / t
	}
	m.LatencySamples = append([]float64(nil), w.latencySamples...)
	return m, ops
}

// SetParallelism reconfigures the job with the engine's retry-with-backoff
// loop, burning the backoff on the reference tick.
func (r *Reference) SetParallelism(p dataflow.ParallelismVector) error {
	e := r.e
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
			r.ResetWindow()
			return nil
		}
		if attempt >= e.rescaleMaxAttempts || e.nowSec+backoff > deadline {
			return fmt.Errorf("%w: %s after %d attempt(s)", ErrRescaleFailed, p, attempt)
		}
		r.Run(backoff)
		backoff *= 2
	}
}

// FailMachine takes a worker machine down and restarts the job.
func (r *Reference) FailMachine(name string) error {
	if err := r.e.FailMachine(name); err != nil {
		return err
	}
	r.ResetWindow()
	return nil
}

// RecoverMachine brings a failed machine back and restarts the job.
func (r *Reference) RecoverMachine(name string) error {
	if err := r.e.RecoverMachine(name); err != nil {
		return err
	}
	r.ResetWindow()
	return nil
}

// referenceArrivalFactors recomputes a_i from the graph's structure:
// records arriving at operator i per source record, propagating
// selectivity along the DAG in topological order. The engine reads the
// factors the graph computed once, at Validate.
func referenceArrivalFactors(g *dataflow.Graph) []float64 {
	a := make([]float64, g.NumOperators())
	for _, src := range g.Sources() {
		a[src] = 1
	}
	for _, i := range g.TopoOrder() {
		out := a[i] * g.Operator(i).Selectivity
		for _, s := range g.Successors(i) {
			a[s] += out
		}
	}
	return a
}
