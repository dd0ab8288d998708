package drs

import (
	"errors"
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/flink"
)

// The core.Policy adapter. On every trigger it rebuilds the M/M/c
// Jackson-network recommendation for the trigger's rate, applies it, and
// — when the model claims the current configuration should already meet
// the target but measured latency disagrees — bumps the highest-
// utilization operator by one instance (the same model-error escape as
// Run). Unlike Run — the paper's Fig. 7 baseline, which calibrates the
// latency fit from its own measurements — the adapter plans on the raw
// queueing model.
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
	// MaxIterations bounds the plan loop per trigger (default 8).
	MaxIterations int
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
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 8
	}
	return &Adapter{cfg: cfg}, nil
}

// Name implements core.Policy.
func (p *Adapter) Name() string {
	if p.cfg.Variant == VariantObservedRate {
		return "drs-observed"
	}
	return "drs-true"
}

// Plan implements core.Policy: recommend → apply → measure, repeating
// until the measured latency meets the target, the model reaches a
// fixed point it cannot escape, or the iteration budget runs out.
func (p *Adapter) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	pmax := e.Cluster().MaxParallelism()
	model, err := NewPolicy(p.cfg.Variant, pmax, req.RateRPS, p.cfg.TargetLatencyMS)
	if err != nil {
		return core.PlanResult{}, err
	}
	lambdas := arrivals(e.Graph(), req.RateRPS)
	m := req.Window
	chosen := m.Par.Clone()
	iters, rescales, escapes := 0, 0, 0
	for iters < p.cfg.MaxIterations {
		next, err := model.Recommend(e.Graph(), m)
		if err != nil {
			return core.PlanResult{}, err
		}
		iters++
		if next.Equal(m.Par) {
			if m.ProcLatencyMS <= p.cfg.TargetLatencyMS {
				break // model and reality agree: done
			}
			// Model says this should suffice; measurement disagrees —
			// add an instance to the most utilized operator.
			worst := mostUtilized(lambdas, model.serviceRates(m), next, pmax)
			if worst == -1 {
				break // everything at the ceiling; nothing left to try
			}
			next[worst]++
			escapes++
		}
		if err := e.SetParallelism(next); err != nil {
			return core.PlanResult{}, err // ErrRescaleFailed → controller degrades
		}
		rescales++
		chosen = next.Clone()
		m = e.MeasureSteady(core.TrialWarmupSec, core.TrialMeasureSec)
		if m.ProcLatencyMS <= p.cfg.TargetLatencyMS {
			break
		}
	}
	req.Span.SetStr("policy", p.Name())
	req.Span.SetInt("policy_iterations", iters)
	req.Span.SetInt("policy_rescales", rescales)
	req.Span.SetInt("policy_escapes", escapes)
	latencyMet := m.ProcLatencyMS <= p.cfg.TargetLatencyMS
	rep := core.DecisionReport{
		TimeSec: req.TimeSec,
		Action:  core.ActionPolicy,
		Reason: fmt.Sprintf("%s: M/M/c plan for %.0f rps (%d iteration(s), %d rescale(s), %d escape(s), trigger %s)",
			p.Name(), req.RateRPS, iters, rescales, escapes, req.Trigger),
		RateRPS:    req.RateRPS,
		Chosen:     chosen,
		LatencyMS:  m.ProcLatencyMS,
		LatencyMet: latencyMet,
		Met:        latencyMet,
		Iterations: iters,
		Trials:     rescales,
	}
	return core.PlanResult{Par: chosen, Report: rep}, nil
}
