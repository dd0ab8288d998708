package drs

import (
	"errors"
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/flink"
)

// The core.Policy adapter is DRS's control loop: measure, calibrate the
// queueing model, derive the minimal configuration the model predicts
// will meet the target (greedy low-to-high allocation), reconfigure, and
// repeat — "until the latency meets the requirements or the total number
// of new parallelism schemes is over the upper limit of resources"
// (§V-A).
//
// Both of the paper's variants register: service rates from the true
// (busy-time) metric, and from the observed metric whose idle-time
// dilution drives the over-provisioning the paper's Fig. 7 shows.

// Config parameterizes the adapter.
type Config struct {
	// Variant selects the rate metric feeding the queueing model.
	Variant Variant
	// TargetLatencyMS is the latency requirement (required).
	TargetLatencyMS float64
}

// Adapter implements core.Policy with the DRS queueing model.
type Adapter struct {
	cfg Config
}

// New validates the configuration and builds the adapter.
func New(cfg Config) (*Adapter, error) {
	if cfg.TargetLatencyMS <= 0 {
		return nil, errors.New("policy/drs: TargetLatencyMS must be > 0")
	}
	return &Adapter{cfg: cfg}, nil
}

// Name implements core.Policy.
func (p *Adapter) Name() string { return p.cfg.Variant.String() }

// Plan implements core.Policy. Every judged window — the trigger window
// first — adds a point to the latency fit; the loop stops when the
// measured latency meets the target and the fit offers nothing cheaper,
// or after MaxIterations windows. When the fit claims the current
// configuration should already meet the target but the measurement
// disagrees, the highest-utilization operator gets one more instance
// (the classic model-error escape); with every operator at the ceiling
// there is nothing left to try.
func (p *Adapter) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	pmax := e.Cluster().MaxParallelism()
	target := p.cfg.TargetLatencyMS
	lambdas := arrivals(e.Graph(), req.RateRPS)
	fit := &latencyFit{}
	lat := req.Window.ProcLatencyMS
	// rates is the judged window's per-operator detail: the trigger
	// window's first (the engine has not ticked since), then each trial's.
	var rates flink.OperatorRates
	e.OperatorRates(&rates)
	log := make([]core.Trial, 0, MaxIterations)
	escapes := 0
	// Each pass judges a window: the trigger window, then each logged one.
	for len(log) < MaxIterations {
		mus := p.cfg.Variant.serviceRates(&rates)
		fit.add(congestionIndex(lambdas, mus, rates.Par), lat)
		latencyMet := lat <= target
		next := allocate(lambdas, mus, rates.Par, pmax, target, fit)
		if latencyMet && next.Total() >= rates.Par.Total() {
			// QoS holds and the model offers nothing cheaper — done.
			// (This is also where the observed-rate variant gets stuck
			// over-provisioned: idle instances depress the observed
			// rates, so its "minimal" plan never shrinks.)
			break
		}
		if !latencyMet && next.Equal(rates.Par) {
			worst := mostUtilized(lambdas, mus, next, pmax)
			if worst == -1 {
				break
			}
			next[worst]++
			escapes++
		}
		tr, err := core.MeasureTrial(&log, e, core.PhaseDRS, next)
		if err != nil {
			return core.PlanResult{}, err // ErrRescaleFailed → controller degrades
		}
		lat = tr.ProcLatencyMS
		e.OperatorRates(&rates)
	}
	iters := min(len(log)+1, MaxIterations)
	req.Span.SetStr("policy", p.Name())
	req.Span.SetInt("policy_iterations", iters)
	req.Span.SetInt("policy_rescales", len(log))
	req.Span.SetInt("policy_escapes", escapes)
	latencyMet := lat <= target
	chosen := rates.Par // rates is refilled no more
	rep := core.DecisionReport{
		TimeSec: req.TimeSec,
		Action:  core.ActionPolicy,
		Reason: fmt.Sprintf("%s: calibrated M/M/c plan for %.0f rps (%d iteration(s), %d rescale(s), %d escape(s), trigger %s)",
			p.Name(), req.RateRPS, iters, len(log), escapes, req.Trigger),
		RateRPS:    req.RateRPS,
		Chosen:     chosen,
		LatencyMS:  lat,
		LatencyMet: latencyMet,
		Met:        latencyMet,
		Iterations: iters,
	}
	return core.Planned(chosen, rep, log), nil
}
