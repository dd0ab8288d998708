package core

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/transfer"
)

// BOConfig is the planner environment read as the BO/transfer policy's
// configuration. A controller built with a nil Policy assembles a
// BOPolicy from the same five values of its own configuration, so the two
// construction paths are interchangeable (the differential golden tests
// prove it). α, w, ξ, M and the trial windows take Algorithm1Config's
// defaults — that config is where the paper defines them and where
// experiments vary them.
type BOConfig = PolicyEnv

// BOPolicy is the paper's planner behind the Policy interface: Eq. 3
// throughput optimization for the base configuration, then Algorithm 2
// (transfer learning) when the library holds a prior model, Algorithm 1
// (fresh BO) otherwise. It is the controller's default policy and the
// reference contender of the tournament.
type BOPolicy struct {
	cfg     BOConfig
	library *transfer.ModelLibrary
	// base is the current throughput-optimal configuration k' — refreshed
	// on every rate-change plan, reused by QoS-triggered replans.
	base dataflow.ParallelismVector
}

// NewBOPolicy validates the configuration and builds the policy.
func NewBOPolicy(cfg BOConfig) (*BOPolicy, error) {
	if cfg.TargetLatencyMS <= 0 {
		return nil, errors.New("core: BO policy needs TargetLatencyMS > 0")
	}
	if cfg.Library == nil {
		cfg.Library = transfer.NewModelLibrary()
	}
	return &BOPolicy{cfg: cfg, library: cfg.Library}, nil
}

// Name implements Policy.
func (p *BOPolicy) Name() string { return "bo" }

// Library exposes the benefit-model library (adopted by the controller;
// the fleet publishes from and warm-starts into it).
func (p *BOPolicy) Library() *transfer.ModelLibrary { return p.library }

// Base returns the current throughput-optimal configuration k'.
func (p *BOPolicy) Base() dataflow.ParallelismVector { return p.base.Clone() }

// RestoreBase reinstates a persisted throughput base, so a restored
// controller's QoS-triggered replans search from the pre-snapshot k'
// instead of an empty base.
func (p *BOPolicy) RestoreBase(base dataflow.ParallelismVector) { p.base = base.Clone() }

// Plan implements Policy: a rate change re-optimizes throughput and runs
// Algorithm 2/1; a QoS violation re-runs Algorithm 1 from the existing
// base.
func (p *BOPolicy) Plan(e *flink.Engine, req PlanRequest) (PlanResult, error) {
	if req.Trigger == TriggerQoS {
		return p.planQoS(e, req)
	}
	return p.planRateChange(e, req)
}

// planRateChange is the paper's full replan: Eq. 3 for the base, then
// transfer (Algorithm 2) when a prior model exists, else Algorithm 1.
func (p *BOPolicy) planRateChange(e *flink.Engine, req PlanRequest) (PlanResult, error) {
	rate := req.RateRPS
	sp := req.Span
	rep := DecisionReport{TimeSec: req.TimeSec, RateRPS: rate}
	tr, err := OptimizeThroughput(e, ThroughputOptions{
		TargetRate: rate,
		Tracer:     p.cfg.Tracer,
	})
	if err != nil {
		return PlanResult{}, err
	}
	p.base = tr.Base
	rep.Base = tr.Base.Clone()
	rep.ThroughputIters = tr.Iterations
	rep.ReachedTarget = tr.ReachedTarget
	rep.TerminatedByRepeat = tr.TerminatedByRepeat

	prev, havePrev := p.library.Nearest(rate)
	if havePrev {
		rep.Action = ActionAlgorithm2
		rep.Reason = fmt.Sprintf("rate changed to %.0f rps; transferring from model at %.0f rps",
			rate, prev.RateRPS)
		rep.TransferSourceRate = prev.RateRPS
		rep.TransferDistance = math.Abs(rate - prev.RateRPS)
		rep.LibraryRates = p.library.Rates()
		if p.cfg.Tracer.Enabled() {
			// Algorithm 2's model selection: the candidates considered and
			// the nearest-rate pick.
			sp.SetFloat("transfer_source_rate", prev.RateRPS)
			sp.SetFloat("transfer_distance", rep.TransferDistance)
			sp.SetInt("library_models", p.library.Len())
		}
		a2, err := RunAlgorithm2(e, p.base, prev.Model, p.algorithm1Config(rate))
		if err != nil {
			return PlanResult{}, err
		}
		return p.adopt(rate, a2, rep), nil
	}
	rep.Action = ActionAlgorithm1
	rep.Reason = fmt.Sprintf("rate changed to %.0f rps; no prior model", rate)
	a1, err := RunAlgorithm1(e, p.base, p.algorithm1Config(rate))
	if err != nil {
		return PlanResult{}, err
	}
	return p.adopt(rate, a1, rep), nil
}

// planQoS handles a latency/throughput violation at a steady rate: a
// fresh Algorithm 1 session from the existing base configuration.
func (p *BOPolicy) planQoS(e *flink.Engine, req PlanRequest) (PlanResult, error) {
	m := req.Window
	rep := DecisionReport{
		TimeSec: req.TimeSec,
		Action:  ActionAlgorithm1,
		Reason: fmt.Sprintf("QoS out of range (latency %.0fms, throughput %.0f rps)",
			m.ProcLatencyMS, m.ThroughputRPS),
		RateRPS: req.RateRPS,
	}
	a1, err := RunAlgorithm1(e, p.base, p.algorithm1Config(req.RateRPS))
	if err != nil {
		return PlanResult{}, err
	}
	return p.adopt(req.RateRPS, a1, rep), nil
}

// adopt ends every planning session the same way: the session's benefit
// model goes into the library under rate and its outcome completes rep.
func (p *BOPolicy) adopt(rate float64, res *Algorithm1Result, rep DecisionReport) PlanResult {
	p.storeModel(rate, res.Model)
	rep.FillFromAlgorithm1(res)
	return PlanResult{Par: res.Best.Par.Clone(), Report: rep}
}

func (p *BOPolicy) algorithm1Config(rate float64) Algorithm1Config {
	return Algorithm1Config{
		TargetRate:      rate,
		TargetLatencyMS: p.cfg.TargetLatencyMS,
		MaxIterations:   p.cfg.MaxIterations,
		Seed:            p.cfg.Seed,
		Tracer:          p.cfg.Tracer,
	}
}

func (p *BOPolicy) storeModel(rate float64, model *gp.Regressor) {
	if model != nil {
		_ = p.library.Put(rate, model) // rate > 0 guaranteed by caller
	}
}
