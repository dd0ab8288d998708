package ds2

import (
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/flink"
)

// The core.Policy adapter: the linear rule as a tournament contender
// that runs under the same controller, chaos profile, and trace surface
// as the paper's planner. Two variants:
//
//   - offline (the default): on every trigger, iterate DS2's
//     measure→rule→reconfigure loop until the rule reaches its fixed
//     point, the throughput target is met, or the iteration budget runs
//     out — the mode DS2's paper evaluates, paying simulated time for
//     each intermediate measurement;
//   - online: apply the rule once per trigger and let the controller's
//     next monitoring window judge it — DS2's one-shot-per-interval
//     deployment loop.
//
// Unlike Run — the paper's Fig. 8 baseline, DS2 without a
// same-configuration stop — the adapter ends at the rule's fixed point.

// Config parameterizes the adapter.
type Config struct {
	// MaxIterations bounds the offline loop per trigger (default 8).
	MaxIterations int
	// Online applies the rule once per trigger instead of iterating.
	Online bool
}

// Adapter implements core.Policy with the DS2 linear rule.
type Adapter struct {
	cfg Config
}

// New builds the adapter.
func New(cfg Config) *Adapter {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 8
	}
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
// for the trigger's rate. DS2 has no latency model, so rate-change and
// QoS triggers take the same path — the rule either prescribes a new
// configuration or it has nothing to offer.
func (p *Adapter) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	// The pure paper rule (utilization 1), capped at the cluster's
	// ceiling, with NewPolicy's 2% throughput slack. Built as a literal
	// because a zero-rate trigger must size to the floor, not error.
	rule := &Policy{
		PMax:              e.Cluster().MaxParallelism(),
		TargetRate:        req.RateRPS,
		Epsilon:           0.02,
		TargetUtilization: 1,
	}
	m := req.Window
	chosen := m.Par.Clone()
	iters, rescales := 0, 0
	for iters < p.cfg.MaxIterations {
		next, err := rule.Step(e.Graph(), m)
		if err != nil {
			return core.PlanResult{}, err
		}
		iters++
		if next.Equal(m.Par) {
			break // the rule's fixed point: more iterations change nothing
		}
		if err := e.SetParallelism(next); err != nil {
			return core.PlanResult{}, err // ErrRescaleFailed → controller degrades
		}
		rescales++
		chosen = next.Clone()
		if p.cfg.Online {
			break // one shot; the next monitoring window judges it
		}
		m = e.MeasureSteady(core.TrialWarmupSec, core.TrialMeasureSec)
		if rule.TargetMet(m.ThroughputRPS) {
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
		Met:        !p.cfg.Online && rule.TargetMet(m.ThroughputRPS),
		Iterations: iters,
		Trials:     rescales,
	}
	return core.PlanResult{Par: chosen, Report: rep}, nil
}
