package core

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/metrics"
	"autrascale/internal/slo"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
)

// ControllerConfig parameterizes the MAPE control loop (§IV).
type ControllerConfig struct {
	// TargetLatencyMS is the job's latency requirement l_t.
	TargetLatencyMS float64
	// MaxIterations bounds each algorithm invocation (default 25, see
	// Algorithm1Config).
	MaxIterations int
	// Seed drives stochastic choices.
	Seed uint64
	// Library preloads benefit models (e.g. refitted from a fleet
	// snapshot's training data); nil starts empty. The first rate change
	// can then transfer immediately instead of learning from scratch.
	Library *transfer.ModelLibrary
	// Tracer records MAPE/BO/transfer decision spans; it is threaded
	// through every algorithm the controller invokes. nil disables
	// tracing at zero cost.
	Tracer *trace.Tracer
	// Policy is the scaling policy the MAPE loop drives (nil: the
	// paper's BO/transfer planner, assembled from this configuration).
	// Every policy runs under the same engine, chaos profile, trace and
	// flight surface, SLO tracker, and degradation path.
	Policy Policy
}

// The MAPE loop's timing and retention, and the planner parameters every
// caller left at the paper's value. No caller ever varied these, so they
// are constants, not configuration.
const (
	// policyIntervalSec is how often the controller wakes up (simulated
	// seconds).
	policyIntervalSec = 60
	// TrialWarmupSec and TrialMeasureSec are the policy-running window
	// every planner — Eq. 3, Algorithm 1/2, the DS2 and DRS adapters —
	// pays per trial configuration: "the job needs a certain amount of
	// time to restart and the QoS is extremely unstable at this time"
	// (the paper recommends a measurement window that is an integer
	// multiple of the policy interval).
	TrialWarmupSec  = policyIntervalSec / 2
	TrialMeasureSec = 2 * policyIntervalSec
	// scoreAlpha is α of the scoring function (Eq. 4): latency and
	// resources weigh equally, which with w = 0.25 gives the paper's
	// benefit threshold 0.9.
	scoreAlpha = 0.5
	// rateChangeFraction is the relative input-rate change that triggers
	// re-planning.
	rateChangeFraction = 0.1
	// eventHistory bounds the retained Events — roughly 8.5 simulated
	// hours of steady one-per-minute steps. Long fleet soaks would
	// otherwise grow the event log without bound. DecisionReports are
	// bounded by trace.DefaultHistoryCap, the same unit that sizes the
	// flight recorder, so a controller's full retained history fits the
	// journal.
	eventHistory = 512
)

// ActionKind labels what a controller step did.
type ActionKind string

// Controller actions.
const (
	ActionNone       ActionKind = "none"       // QoS and benefit in range
	ActionThroughput ActionKind = "throughput" // ran the throughput optimizer
	ActionAlgorithm1 ActionKind = "algorithm1" // ran BO at a steady rate
	ActionAlgorithm2 ActionKind = "algorithm2" // ran transfer learning
	// ActionDegraded: a planning session hit a failed/timed-out rescale
	// after retries; the controller kept the last-known-good
	// configuration and will re-plan on the next policy tick.
	ActionDegraded ActionKind = "degraded"
	// ActionPolicy: a non-BO plug-in policy (DS2, DRS, …) planned this
	// step; the report's Reason names the policy and what it did.
	ActionPolicy ActionKind = "policy"
)

// Event records one controller decision.
type Event struct {
	TimeSec       float64
	Action        ActionKind
	Reason        string
	RateRPS       float64
	Par           dataflow.ParallelismVector
	ProcLatencyMS float64
	ThroughputRPS float64
	// LagRecords and CPUUsedCores carry the window's backlog and CPU
	// usage so consumers (the tournament's lag-integral and cores·sec
	// accounting) need no second measurement pass.
	LagRecords   float64
	CPUUsedCores float64
}

// Controller is the paper's Scaling Manager + Policy Controller + System
// Scheduler stack, driving a single job.
type Controller struct {
	engine *flink.Engine
	// targetLatencyMS is the job's latency requirement l_t.
	targetLatencyMS float64
	// policy plans every rescale; the MAPE loop (monitor, trigger
	// detection, degradation, SLO tracking, journaling) stays here.
	policy  Policy
	library *transfer.ModelLibrary
	tracer  *trace.Tracer
	inst    *ctlInstruments
	slo     *slo.Tracker
	// lastSLO is the burn-rate state after the previous step; crossing to
	// a different state journals a KindSLOState flight record.
	lastSLO slo.State

	curRate  float64
	rateEWMA *stat.EWMA
	events   []Event
	reports  []DecisionReport
}

// ctlInstruments caches the controller's metric handles. The store and
// job name are fixed at construction, so resolving each counter and
// histogram once turns the per-step hot path (recordStepMetrics,
// pushReport) into plain atomic increments — no tag encoding, no
// registry lookup, nothing for fleet workers to contend on.
type ctlInstruments struct {
	steps      *metrics.Counter
	violations *metrics.Counter
	// decisions holds the five BO-path actions from construction, so
	// their zero-valued series are exposed from the first scrape.
	// ActionPolicy joins on first use (see decision): a BO job never
	// reports it, and an always-zero series would change its exposition.
	decisions map[ActionKind]*metrics.Counter
	store     *metrics.Store
	job       string
	degraded  *metrics.Counter
	transfers *metrics.Counter

	boIterations *metrics.Histogram
	margin       *metrics.Histogram
}

// newCtlInstruments resolves every instrument the controller emits; nil
// when the engine records no metrics.
func newCtlInstruments(st *metrics.Store, job string) *ctlInstruments {
	if st == nil {
		return nil
	}
	tags := map[string]string{"job": job}
	in := &ctlInstruments{
		steps:        st.Counter("autrascale.steps", tags),
		violations:   st.Counter("autrascale.latency.violations", tags),
		decisions:    make(map[ActionKind]*metrics.Counter, 6),
		store:        st,
		job:          job,
		degraded:     st.Counter("degraded_decisions", tags),
		transfers:    st.Counter("autrascale.transfers", tags),
		boIterations: st.Histogram("autrascale.bo.iterations", tags, boIterationBuckets),
		margin:       st.Histogram("autrascale.decision.margin", tags, marginBuckets),
	}
	for _, a := range []ActionKind{ActionNone, ActionThroughput, ActionAlgorithm1, ActionAlgorithm2, ActionDegraded} {
		in.decision(a)
	}
	return in
}

// decision returns the autrascale.decisions counter for an action,
// resolving it on first use. Only the controller's own stepping
// goroutine calls it, so the map needs no lock.
func (in *ctlInstruments) decision(a ActionKind) *metrics.Counter {
	ctr := in.decisions[a]
	if ctr == nil {
		ctr = in.store.Counter("autrascale.decisions", map[string]string{"job": in.job, "action": string(a)})
		in.decisions[a] = ctr
	}
	return ctr
}

// NewController builds a controller for the engine.
func NewController(e *flink.Engine, cfg ControllerConfig) (*Controller, error) {
	if e == nil {
		return nil, errors.New("core: nil engine")
	}
	if cfg.TargetLatencyMS <= 0 {
		return nil, errors.New("core: controller needs TargetLatencyMS > 0")
	}
	lib := cfg.Library
	if lib == nil {
		lib = transfer.NewModelLibrary()
	}
	pol := cfg.Policy
	if pol == nil {
		// The default policy is the paper's planner, assembled from this
		// configuration — behaviorally identical to the pre-interface
		// controller (the differential golden tests lock this in).
		var err error
		pol, err = NewBOPolicy(BOConfig{
			TargetLatencyMS: cfg.TargetLatencyMS,
			MaxIterations:   cfg.MaxIterations,
			Seed:            cfg.Seed,
			Library:         lib,
			Tracer:          cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
	}
	// A policy that maintains its own model library (the BO policy)
	// supersedes the controller's: fleet model publication and warm
	// starts must see what the policy actually learned.
	if lp, ok := pol.(libraryProvider); ok {
		lib = lp.Library()
	}
	return &Controller{
		engine:          e,
		targetLatencyMS: cfg.TargetLatencyMS,
		policy:          pol,
		library:         lib,
		tracer:          cfg.Tracer,
		inst:            newCtlInstruments(e.Store(), e.JobName()),
		// SLO tracking is always on — a handful of float ops per step, no
		// randomness — with the slo package's default windows and thresholds.
		slo:     slo.New(slo.Config{TargetLatencyMS: cfg.TargetLatencyMS}),
		lastSLO: slo.StateHealthy,
		// Smooth the observed input rate (half-life one policy window) so the
		// controller re-plans on sustained shifts, not window jitter.
		rateEWMA: stat.NewEWMA(stat.HalfLifeAlpha(1)),
	}, nil
}

// Policy exposes the scaling policy driving this controller.
func (c *Controller) Policy() Policy { return c.policy }

// Library exposes the benefit-model library (for inspection/tests).
func (c *Controller) Library() *transfer.ModelLibrary { return c.library }

// Events returns the decision log, oldest first (bounded by
// eventHistory).
func (c *Controller) Events() []Event { return append([]Event(nil), c.events...) }

// pushEvent retains ev, evicting the oldest entries beyond the
// eventHistory cap.
func (c *Controller) pushEvent(ev Event) {
	c.events = append(c.events, ev)
	if over := len(c.events) - eventHistory; over > 0 {
		n := copy(c.events, c.events[over:])
		c.events = c.events[:n]
	}
}

// Decisions returns the retained decision reports, oldest first (bounded
// by trace.DefaultHistoryCap).
func (c *Controller) Decisions() []DecisionReport {
	return append([]DecisionReport(nil), c.reports...)
}

// Instrument bucket layouts for the controller's decision-quality
// histograms (exposed through the engine's metrics store).
var (
	boIterationBuckets = []float64{1, 2, 3, 5, 8, 12, 15, 20, 25}
	marginBuckets      = []float64{-0.2, -0.1, -0.05, 0, 0.02, 0.05, 0.1, 0.2}
)

// pushReport retains the report and feeds the decision-quality
// instruments (counter per action, BO-iteration and Eq. 9-margin
// histograms) when the engine has a metrics store.
func (c *Controller) pushReport(r DecisionReport) {
	c.reports = append(c.reports, r)
	if over := len(c.reports) - trace.DefaultHistoryCap; over > 0 {
		n := copy(c.reports, c.reports[over:])
		c.reports = c.reports[:n]
	}
	if c.tracer.FlightEnabled() {
		c.tracer.Emit(trace.Record{
			TimeSec: r.TimeSec,
			Kind:    trace.KindDecision,
			Job:     c.engine.JobName(),
			Attrs: map[string]any{
				"action":   string(r.Action),
				"reason":   r.Reason,
				"rate_rps": r.RateRPS,
				"chosen":   r.Chosen.String(),
			},
		})
		for _, it := range r.Iters {
			c.tracer.Emit(trace.Record{
				TimeSec: r.TimeSec,
				Kind:    trace.KindBOIteration,
				Job:     c.engine.JobName(),
				Attrs: map[string]any{
					"iter":       it.Iter,
					"par":        it.Par.String(),
					"score":      it.Score,
					"eq9_margin": it.Eq9Margin,
					"acq_value":  it.AcqValue,
					"terminated": it.Terminated,
				},
			})
		}
	}
	if c.inst == nil {
		return
	}
	c.inst.decision(r.Action).Inc()
	if r.Degraded {
		// Degraded decisions have no BO outcome to histogram; they are
		// tracked by their own counter for scrape-side alerting.
		c.inst.degraded.Inc()
		return
	}
	if r.Action == ActionPolicy {
		// A plug-in policy's loop count and zero margin are not BO
		// iterations or an Eq. 9 margin.
		return
	}
	c.inst.boIterations.Observe(float64(r.Iterations))
	c.inst.margin.Observe(r.Margin)
	if r.Action == ActionAlgorithm2 {
		c.inst.transfers.Inc()
	}
}

// recordStepMetrics tracks per-step QoS outcomes (latency target hit or
// miss) so scrape-side alerting does not need to parse events. The same
// call feeds the SLO tracker — one observation per policy window, so the
// burn-rate pipeline costs O(steps), never a separate walk.
func (c *Controller) recordStepMetrics(m flink.Measurement) {
	c.slo.Observe(c.engine.Now(), m.ProcLatencyMS, m.LagRecords, m.InputRateRPS)
	if h := c.slo.Health(); h.State != c.lastSLO {
		if c.tracer.FlightEnabled() {
			c.tracer.Emit(trace.Record{
				TimeSec: c.engine.Now(),
				Kind:    trace.KindSLOState,
				Job:     c.engine.JobName(),
				Attrs: map[string]any{
					"from":      string(c.lastSLO),
					"to":        string(h.State),
					"burn_rate": h.BurnRate,
				},
			})
		}
		c.lastSLO = h.State
	}
	if c.inst == nil {
		return
	}
	c.inst.steps.Inc()
	if m.ProcLatencyMS > c.targetLatencyMS {
		c.inst.violations.Inc()
	}
}

// SLOHealth reports the job's current burn-rate classification.
func (c *Controller) SLOHealth() slo.Health { return c.slo.Health() }

// Store exposes the engine's metrics store (nil when the engine records
// no metrics) — the scrape surface for the instruments above.
func (c *Controller) Store() *metrics.Store { return c.engine.Store() }

// Base returns the current throughput-optimal configuration k' when the
// policy tracks one (the BO policy does); nil otherwise.
func (c *Controller) Base() dataflow.ParallelismVector {
	if bp, ok := c.policy.(baseProvider); ok {
		return bp.Base()
	}
	return nil
}

// Step performs one MAPE pass: observe a policy window, decide, act.
func (c *Controller) Step() (Event, error) {
	e := c.engine
	sp := c.tracer.StartSpan("mape.step")
	defer sp.End()
	// The step's span id is the correlation id: every flight record the
	// engine emits while this step is in flight (rescale attempts, chaos
	// injections) joins this decision's causal chain.
	c.tracer.SetCorr(sp.ID())
	// Monitor: observe one policy window.
	msp := sp.Child("mape.monitor")
	m := e.RunAndMeasure(0, policyIntervalSec)
	if c.tracer.Enabled() {
		msp.SetFloat("t_sec", e.Now())
		msp.SetFloat("window_sec", m.WindowSec)
		msp.SetFloat("rate_rps", m.InputRateRPS)
		msp.SetFloat("latency_ms", m.ProcLatencyMS)
		msp.SetFloat("throughput_rps", m.ThroughputRPS)
		msp.SetFloat("lag_records", m.LagRecords)
	}
	msp.End()
	ev := Event{
		TimeSec:       e.Now(),
		RateRPS:       m.InputRateRPS,
		Par:           m.Par, // Measure already copied it out of the engine
		ProcLatencyMS: m.ProcLatencyMS,
		ThroughputRPS: m.ThroughputRPS,
		LagRecords:    m.LagRecords,
		CPUUsedCores:  m.CPUUsedCores,
		Action:        ActionNone,
	}
	c.recordStepMetrics(m)

	// Analyze: detect sustained rate shifts on the smoothed signal, but
	// plan for the currently measured rate.
	smoothed := c.rateEWMA.Observe(m.InputRateRPS)
	rate := m.InputRateRPS
	rateChanged := c.curRate == 0 ||
		math.Abs(smoothed-c.curRate) > rateChangeFraction*c.curRate
	if c.tracer.Enabled() {
		sp.SetFloat("t_sec", ev.TimeSec)
		sp.SetFloat("rate_rps", rate)
		sp.SetFloat("smoothed_rps", smoothed)
		sp.SetBool("rate_changed", rateChanged)
		sp.SetBool("qos_ok", c.qosOK(m))
	}

	switch {
	case rateChanged:
		switch err := c.plan(TriggerRateChange, rate, m, &ev, sp); {
		case err == nil:
			c.rateEWMA.Reset()
			c.rateEWMA.Observe(rate)
			c.curRate = rate
			// A planning session runs many trial configurations and leaves a
			// large source backlog behind. Let the final restart complete,
			// then resume from the latest offsets — production controllers
			// do the same after maintenance; draining minutes of
			// experiment-era backlog would otherwise dominate QoS forever.
			e.Run(30)
			e.SeekToLatest()
		case errors.Is(err, flink.ErrRescaleFailed):
			c.degrade(&ev, rate, err)
		default:
			return ev, err
		}
	case !c.qosOK(m):
		switch err := c.plan(TriggerQoS, rate, m, &ev, sp); {
		case err == nil:
			e.Run(30)
			e.SeekToLatest()
		case errors.Is(err, flink.ErrRescaleFailed):
			c.degrade(&ev, rate, err)
		default:
			return ev, err
		}
	}
	if c.tracer.Enabled() {
		sp.SetStr("action", string(ev.Action))
		if ev.Reason != "" {
			sp.SetStr("reason", ev.Reason)
		}
		sp.SetStr("par", ev.Par.String())
	}

	c.pushEvent(ev)
	return ev, nil
}

// plan invokes the policy for a trigger and commits its outcome: the
// event takes the policy's action/rationale, the report is retained,
// journaled, and fed to the decision instruments. A rate-change trigger
// opens the mape.plan span around the whole planning session (the QoS
// path never did, and keeps not doing so — span streams must replay
// byte-for-byte against pre-interface journals). parent is the enclosing
// mape.step span (nil when tracing is off).
func (c *Controller) plan(trigger PlanTrigger, rate float64, m flink.Measurement, ev *Event, parent *trace.ActiveSpan) error {
	var sp *trace.ActiveSpan
	if trigger == TriggerRateChange {
		sp = parent.Child("mape.plan")
		defer sp.End()
	}
	res, err := c.policy.Plan(c.engine, PlanRequest{
		Trigger: trigger,
		RateRPS: rate,
		Window:  m,
		TimeSec: ev.TimeSec,
		Span:    sp,
	})
	if err != nil {
		return err
	}
	ev.Action = res.Report.Action
	ev.Reason = res.Report.Reason
	if res.Par != nil {
		ev.Par = res.Par
	}
	c.pushReport(res.Report)
	return nil
}

// degrade handles a planning session that died on a failed or timed-out
// rescale: the engine is still on the last configuration it reached
// successfully (a failed rescale never switches), so the controller
// records a Degraded decision, keeps that last-known-good configuration,
// and leaves c.curRate untouched — the next Step sees the rate change
// again and re-plans instead of wedging.
func (c *Controller) degrade(ev *Event, rate float64, cause error) {
	e := c.engine
	ev.Action = ActionDegraded
	ev.Par = e.Parallelism()
	ev.Reason = fmt.Sprintf("planning aborted (%v); keeping last-known-good %s", cause, ev.Par)
	c.pushReport(DecisionReport{
		TimeSec:  ev.TimeSec,
		Action:   ActionDegraded,
		Reason:   ev.Reason,
		RateRPS:  rate,
		Degraded: true,
		Chosen:   ev.Par.Clone(),
	})
	// Drop the backlog the aborted session accumulated, as a completed
	// session would, so the job resumes from live data.
	e.Run(30)
	e.SeekToLatest()
}

// qosOK checks latency and throughput against targets.
func (c *Controller) qosOK(m flink.Measurement) bool {
	if m.ProcLatencyMS > c.targetLatencyMS {
		return false
	}
	if m.InputRateRPS > 0 && m.ThroughputRPS < m.InputRateRPS*0.95 && m.LagRecords > m.InputRateRPS {
		return false
	}
	return true
}

// Run executes Steps until the simulation clock passes untilSec.
func (c *Controller) Run(untilSec float64) ([]Event, error) {
	for c.engine.Now() < untilSec {
		if _, err := c.Step(); err != nil {
			return c.Events(), err
		}
	}
	return c.Events(), nil
}
