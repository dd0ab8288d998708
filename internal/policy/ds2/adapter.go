package ds2

import (
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/flink"
)

// The core.Policy adapter: the linear rule as a contender that runs
// under the same controller, chaos profile, and trace surface as the
// paper's planner. Two variants:
//
//   - offline (the default): on every trigger, iterate DS2's
//     measure→rule→reconfigure loop until the rule reaches its fixed
//     point, the throughput target is met, or MaxIterations windows have
//     been judged — the mode DS2's paper evaluates and Fig. 8
//     reproduces, paying simulated time for each intermediate
//     measurement;
//   - online: apply the rule once per trigger and let the controller's
//     next monitoring window judge it — DS2's one-shot-per-interval
//     deployment loop.

// Config parameterizes the adapter.
type Config struct {
	// Online applies the rule once per trigger instead of iterating.
	Online bool
}

// Adapter implements core.Policy with the DS2 linear rule.
type Adapter struct {
	cfg Config
}

// New builds the adapter.
func New(cfg Config) *Adapter {
	return &Adapter{cfg: cfg}
}

// Name implements core.Policy.
func (p *Adapter) Name() string {
	if p.cfg.Online {
		return "ds2-online"
	}
	return "ds2"
}

// Plan implements core.Policy: size every operator by the linear rule
// for the trigger's rate, capped at the cluster's ceiling, starting from
// the trigger window. DS2 has no latency model, so rate-change and QoS
// triggers take the same path — the rule either prescribes a new
// configuration or it has nothing to offer. Report.Iterations counts the
// windows judged, the trigger window included.
func (p *Adapter) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	pmax := e.Cluster().MaxParallelism()
	m := req.Window
	// rates is the judged window's per-operator detail: the trigger
	// window's first (the engine has not ticked since), then each trial's.
	var rates flink.OperatorRates
	e.OperatorRates(&rates)
	chosen := rates.Par.Clone()
	iters, rescales := 0, 0
	for {
		iters++
		next, err := step(e.Graph(), &rates, pmax, req.RateRPS)
		if err != nil {
			return core.PlanResult{}, err
		}
		if next.Equal(rates.Par) {
			break // the rule's fixed point: more iterations change nothing
		}
		rescales++
		chosen = next.Clone()
		if p.cfg.Online {
			// One shot; the next monitoring window judges it.
			if err := e.SetParallelism(next); err != nil {
				return core.PlanResult{}, err
			}
			break
		}
		if m, err = core.MeasureTrial(e, next); err != nil {
			return core.PlanResult{}, err // ErrRescaleFailed → controller degrades
		}
		e.OperatorRates(&rates)
		if iters == MaxIterations {
			break // the budget is spent; this last window goes unjudged
		}
		if targetMet(m.ThroughputRPS, req.RateRPS) {
			iters++ // the window that met the target was judged too
			break
		}
	}
	req.Span.SetStr("policy", p.Name())
	req.Span.SetInt("policy_iterations", iters)
	req.Span.SetInt("policy_rescales", rescales)
	rep := core.DecisionReport{
		TimeSec: req.TimeSec,
		Action:  core.ActionPolicy,
		Reason: fmt.Sprintf("%s: linear rule for %.0f rps (%d iteration(s), %d rescale(s), trigger %s)",
			p.Name(), req.RateRPS, iters, rescales, req.Trigger),
		RateRPS:    req.RateRPS,
		Chosen:     chosen,
		LatencyMS:  m.ProcLatencyMS,
		Met:        !p.cfg.Online && targetMet(m.ThroughputRPS, req.RateRPS),
		Iterations: iters,
		Trials:     rescales,
	}
	return core.PlanResult{Par: chosen, Report: rep}, nil
}
