// Package slo judges each monitor window against the job's objectives
// (Judge) and tracks them for the fleet's observability pipeline: a
// latency-violation budget and a lag budget, each watched through a pair
// of exponentially decayed windows (a fast window that reacts within
// minutes and a slow window that remembers an hour), reduced to SRE-style
// *burn rates* — how many times faster than the budget allows the job is
// spending its error budget.
//
// The design follows the multi-window, multi-burn-rate alerting pattern
// from the Google SRE workbook: a job is *burning* only when both the
// fast and the slow window agree the budget is being spent far faster
// than sustainable (a short spike alone does not page), and *degraded*
// when the budget is being consumed at an unsustainable but not yet
// alarming rate.
//
// # Cost model
//
// A tracker is fed one Verdict per MAPE step — the judgement the
// controller's replan trigger and the `autrascale.latency.violations`
// counter read too — so the fleet pays O(due jobs) per round for SLO
// tracking, never O(jobs).
// Observe is a handful of float operations, draws no randomness, and
// therefore cannot perturb a seeded run: the golden traces pass
// unchanged with tracking enabled.
//
// # Nil safety
//
// Like the tracer, the nil *Tracker is a valid disabled tracker: Observe
// is a no-op and Health returns a zero (healthy, unobserved) report.
package slo

import "math"

// State classifies a job's SLO health.
type State string

// Health states, from best to worst.
const (
	// StateHealthy: both budgets are being spent slower than allowed.
	StateHealthy State = "healthy"
	// StateDegraded: the budget is being consumed at an unsustainable
	// rate (burn ≥ 1 on both windows) or the fast window shows an acute
	// spike; left alone the job will exhaust its error budget.
	StateDegraded State = "degraded"
	// StateBurning: both windows agree the budget is burning at the
	// page-worthy rate — the multi-window condition that pages an
	// operator in the SRE-workbook pattern.
	StateBurning State = "burning"
)

// Severity orders states for aggregation (healthy < degraded < burning).
func (s State) Severity() int {
	switch s {
	case StateBurning:
		return 2
	case StateDegraded:
		return 1
	default:
		return 0
	}
}

// The objectives, windows and thresholds are constants.
const (
	// violationBudget is the fraction of monitor windows allowed to
	// violate the latency target: a 99% windows-good objective. Burn
	// rate 1.0 means violations arrive exactly at budget; 14.4 means the
	// monthly budget would be gone in ~2 days.
	violationBudget = 0.01
	// lagBudgetSec is the backlog objective expressed in seconds of
	// input: lag above lagBudgetSec × input-rate counts as a lag
	// violation (one policy interval of backlog).
	lagBudgetSec = 60
	// catchUpShare and catchUpLagSec make the throughput objective: a
	// window falls behind its input when throughput is under
	// catchUpShare × input-rate and the backlog exceeds catchUpLagSec
	// of input.
	catchUpShare  = 0.95
	catchUpLagSec = 1
	// fastWindowSec and slowWindowSec are the decay time constants of
	// the two observation windows, in simulated seconds.
	fastWindowSec = 300
	slowWindowSec = 3600
	// burnDegraded and burnPage are the burn-rate thresholds: degraded
	// when both windows ≥ burnDegraded, burning when both ≥ burnPage
	// (the workbook's 2-day-budget-exhaustion page threshold for a
	// 1h/5m window pair).
	burnDegraded = 1
	burnPage     = 14.4
)

// Verdict is the one judgement of a monitor window. Each reader combines
// the fields it needs: the replan trigger LatencyOK and ThroughputOK, the
// violation counter LatencyOK, the tracker LatencyOK and BacklogOK.
type Verdict struct {
	// LatencyOK: the window's processing latency is not over the target
	// (a NaN latency is not over it).
	LatencyOK bool
	// ThroughputOK: the job keeps up with its input — it is not both
	// under catchUpShare of the rate and catchUpLagSec of input behind.
	ThroughputOK bool
	// BacklogOK: the backlog is within lagBudgetSec of input.
	BacklogOK bool
}

// Judge judges one monitor window. A window with no input (rate ≤ 0)
// cannot fall behind it.
func Judge(targetLatencyMS, latencyMS, throughputRPS, inputRateRPS, lagRecords float64) Verdict {
	return Verdict{
		LatencyOK: !(latencyMS > targetLatencyMS),
		ThroughputOK: !(inputRateRPS > 0 && throughputRPS < catchUpShare*inputRateRPS &&
			lagRecords > catchUpLagSec*inputRateRPS),
		BacklogOK: !(inputRateRPS > 0 && lagRecords > lagBudgetSec*inputRateRPS),
	}
}

// classify maps a governing burn rate to its state; both thresholds are
// inclusive.
func classify(burn float64) State {
	switch {
	case burn >= burnPage:
		return StateBurning
	case burn >= burnDegraded:
		return StateDegraded
	}
	return StateHealthy
}

// window is a time-decayed mean of a violation indicator: the fraction
// of recent observations (weighted by simulated-time decay) that
// violated. Unlike stat.EWMA its weight depends on the simulated time
// between samples, so irregular step spacing (planning sessions burn
// hours) decays correctly.
type window struct {
	tau     float64 // decay time constant, seconds
	value   float64
	lastSec float64
	started bool
}

// observe folds in an indicator sample (1 = violated, 0 = ok) at tSec.
func (w *window) observe(tSec, x float64) {
	if !w.started {
		w.value = x
		w.lastSec = tSec
		w.started = true
		return
	}
	dt := tSec - w.lastSec
	if dt < 0 {
		dt = 0
	}
	alpha := 1 - math.Exp(-dt/w.tau)
	w.value += alpha * (x - w.value)
	w.lastSec = tSec
}

// Budget is the burn-rate view of one objective.
type Budget struct {
	// FastBurn and SlowBurn are the violation fractions of the two
	// windows divided by the budget fraction — 1.0 means spending
	// exactly at the sustainable rate.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// burn returns the budget's governing burn rate: the fast window capped
// by the slow one, per the multi-window rule (both must agree).
func (b Budget) burn() float64 { return math.Min(b.FastBurn, b.SlowBurn) }

// Health is a tracker's point-in-time report.
type Health struct {
	State   State  `json:"state"`
	Latency Budget `json:"latency"`
	Lag     Budget `json:"lag"`
	// BurnRate is the worst governing burn rate across budgets — the
	// single number the fleet ranks jobs by.
	BurnRate     float64 `json:"burn_rate"`
	Observations int     `json:"observations"`
	LastSec      float64 `json:"last_sec,omitempty"`
}

// Tracker watches one job's SLO budgets. It is not safe for concurrent
// use; in the fleet each job's tracker is touched only by the worker
// stepping that job (and read at the round barrier, after workers
// joined).
type Tracker struct {
	latFast, latSlow window
	lagFast, lagSlow window

	observations int
	lastSec      float64
}

// New builds a tracker.
func New() *Tracker {
	return &Tracker{
		latFast: window{tau: fastWindowSec},
		latSlow: window{tau: slowWindowSec},
		lagFast: window{tau: fastWindowSec},
		lagSlow: window{tau: slowWindowSec},
	}
}

// Observe folds in the verdict of the monitor window that ended at
// simulated time tSec: its LatencyOK and BacklogOK. No-op on the nil
// tracker.
func (t *Tracker) Observe(tSec float64, v Verdict) {
	if t == nil {
		return
	}
	latViolated := 0.0
	if !v.LatencyOK {
		latViolated = 1
	}
	lagViolated := 0.0
	if !v.BacklogOK {
		lagViolated = 1
	}
	t.latFast.observe(tSec, latViolated)
	t.latSlow.observe(tSec, latViolated)
	t.lagFast.observe(tSec, lagViolated)
	t.lagSlow.observe(tSec, lagViolated)
	t.observations++
	t.lastSec = tSec
}

// WindowState is one decayed window's serializable position: the same
// three fields window keeps, exported for the persistence layer. The
// decay constant is not part of the state — it is a constant.
type WindowState struct {
	Value   float64 `json:"value"`
	LastSec float64 `json:"last_sec"`
	Started bool    `json:"started"`
}

// TrackerState is a tracker's full serializable state. LastSec values
// are in the observed clock's terms; a restore onto an engine whose
// clock restarted must shift them first (see Shifted).
type TrackerState struct {
	LatFast      WindowState `json:"lat_fast"`
	LatSlow      WindowState `json:"lat_slow"`
	LagFast      WindowState `json:"lag_fast"`
	LagSlow      WindowState `json:"lag_slow"`
	Observations int         `json:"observations"`
	LastSec      float64     `json:"last_sec"`
}

// Shifted returns the state with every timestamp moved by deltaSec —
// used when restoring onto a rebuilt engine whose clock restarts at
// zero: shifting by the negated snapshot-time clock keeps every future
// dt (and therefore every decay weight) identical to an uninterrupted
// run.
func (s TrackerState) Shifted(deltaSec float64) TrackerState {
	shift := func(w WindowState) WindowState {
		if w.Started {
			w.LastSec += deltaSec
		}
		return w
	}
	out := s
	out.LatFast = shift(s.LatFast)
	out.LatSlow = shift(s.LatSlow)
	out.LagFast = shift(s.LagFast)
	out.LagSlow = shift(s.LagSlow)
	if s.Observations > 0 {
		out.LastSec += deltaSec
	}
	return out
}

// State captures the tracker's serializable position. Zero on the nil
// tracker.
func (t *Tracker) State() TrackerState {
	if t == nil {
		return TrackerState{}
	}
	dump := func(w window) WindowState {
		return WindowState{Value: w.value, LastSec: w.lastSec, Started: w.started}
	}
	return TrackerState{
		LatFast:      dump(t.latFast),
		LatSlow:      dump(t.latSlow),
		LagFast:      dump(t.lagFast),
		LagSlow:      dump(t.lagSlow),
		Observations: t.observations,
		LastSec:      t.lastSec,
	}
}

// RestoreState overwrites the tracker's position with a previously
// captured state. No-op on the nil tracker.
func (t *Tracker) RestoreState(s TrackerState) {
	if t == nil {
		return
	}
	load := func(w *window, ws WindowState) {
		w.value = ws.Value
		w.lastSec = ws.LastSec
		w.started = ws.Started
	}
	load(&t.latFast, s.LatFast)
	load(&t.latSlow, s.LatSlow)
	load(&t.lagFast, s.LagFast)
	load(&t.lagSlow, s.LagSlow)
	t.observations = s.Observations
	t.lastSec = s.LastSec
}

// Health classifies the tracker's current state. Zero-valued (healthy,
// unobserved) on the nil tracker.
func (t *Tracker) Health() Health {
	if t == nil {
		return Health{State: StateHealthy}
	}
	h := Health{
		Latency: Budget{
			FastBurn: t.latFast.value / violationBudget,
			SlowBurn: t.latSlow.value / violationBudget,
		},
		Lag: Budget{
			FastBurn: t.lagFast.value / violationBudget,
			SlowBurn: t.lagSlow.value / violationBudget,
		},
		Observations: t.observations,
		LastSec:      t.lastSec,
	}
	h.BurnRate = math.Max(h.Latency.burn(), h.Lag.burn())
	h.State = classify(h.BurnRate)
	return h
}
