// Package core implements AuTraScale itself: the throughput optimizer
// (paper Eq. 3 with the repeated-configuration termination rule and the
// history review), Algorithm 1 (Bayesian optimization at a steady input
// rate), Algorithm 2 (transfer learning when the rate changes), and the
// MAPE controller that glues monitoring, analysis, planning, and
// execution together (§IV).
package core

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/trace"
)

// ThroughputOptions controls OptimizeThroughput.
type ThroughputOptions struct {
	// TargetRate v_c in records/s. Required.
	TargetRate float64
	// PMax caps each operator (default: the engine cluster's ceiling).
	PMax int
	// Epsilon is the relative slack for "throughput meets the input
	// rate" (default 0.02).
	Epsilon float64
	// MaxIterations bounds the loop (default 8; the paper observes ≤ 4
	// in practice, Fig. 5a).
	MaxIterations int
	// WarmupSec/MeasureSec define the policy-running window per
	// iteration (defaults TrialWarmupSec/TrialMeasureSec: 30/120
	// simulated seconds).
	WarmupSec, MeasureSec float64
	// Tracer records one span per Eq. 3 iteration plus the history
	// review outcome. nil disables tracing.
	Tracer *trace.Tracer
}

func (o *ThroughputOptions) defaults(e *flink.Engine) error {
	if o.TargetRate <= 0 {
		return errors.New("core: TargetRate must be > 0")
	}
	if o.PMax <= 0 {
		o.PMax = e.Cluster().MaxParallelism()
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.02
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 8
	}
	if o.WarmupSec <= 0 {
		o.WarmupSec = TrialWarmupSec
	}
	if o.MeasureSec <= 0 {
		o.MeasureSec = TrialMeasureSec
	}
	return nil
}

// ThroughputIter records one iteration of the optimizer.
type ThroughputIter struct {
	Par           dataflow.ParallelismVector
	ThroughputRPS float64
	ProcLatencyMS float64
}

// ThroughputResult is the outcome of OptimizeThroughput.
type ThroughputResult struct {
	// Base is the selected configuration k' — the minimum parallelism
	// that maximizes throughput; it seeds Algorithm 1's search space.
	Base dataflow.ParallelismVector
	// BestThroughputRPS is the throughput measured at Base.
	BestThroughputRPS float64
	// ReachedTarget reports whether the input rate was sustained. It is
	// false for externally capped pipelines (the Yahoo case, Fig. 5b).
	ReachedTarget bool
	// TerminatedByRepeat is true when the run stopped because two
	// consecutive iterations recommended the same configuration —
	// AuTraScale's addition over DS2.
	TerminatedByRepeat bool
	Iterations         int
	History            []ThroughputIter
}

// OptimizeThroughput runs the paper's §III-C procedure: iterate the true
// processing rate rule (Eq. 3) until the throughput meets the input rate
// or two consecutive iterations recommend the same configuration, then
// review the history and select the configuration with maximum throughput
// and minimal resource usage.
func OptimizeThroughput(e *flink.Engine, opts ThroughputOptions) (ThroughputResult, error) {
	var res ThroughputResult
	if err := opts.defaults(e); err != nil {
		return res, err
	}
	g := e.Graph()
	sp := opts.Tracer.StartSpan("core.throughput_opt")
	defer sp.End()
	if opts.Tracer.Enabled() {
		sp.SetFloat("target_rate", opts.TargetRate)
	}
	m := e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		res.History = append(res.History, ThroughputIter{
			Par:           m.Par.Clone(),
			ThroughputRPS: m.ThroughputRPS,
			ProcLatencyMS: m.ProcLatencyMS,
		})
		thrMet := m.ThroughputRPS >= opts.TargetRate*(1-opts.Epsilon)
		next, err := eq3Step(g, m, opts.TargetRate, opts.PMax)
		if err != nil {
			return res, err
		}
		if opts.Tracer.Enabled() {
			it := sp.Child("throughput.eq3_iteration")
			it.SetInt("iter", res.Iterations)
			it.SetStr("par", m.Par.String())
			it.SetFloat("throughput_rps", m.ThroughputRPS)
			it.SetFloat("latency_ms", m.ProcLatencyMS)
			it.SetBool("throughput_met", thrMet)
			it.SetStr("eq3_next", next.String())
			it.End()
		}
		if thrMet && next.Total() >= m.Par.Total() {
			// Throughput sustained and Eq. 3 does not prescribe anything
			// cheaper: done. (Merely meeting throughput is not enough —
			// from an over-provisioned start the optimizer must still
			// shrink toward the *minimum* sustaining configuration.)
			res.ReachedTarget = true
			break
		}
		if next.Equal(m.Par) {
			// The new termination condition: two consecutive identical
			// recommendations (§III-C).
			res.TerminatedByRepeat = true
			res.ReachedTarget = thrMet
			break
		}
		if err := e.SetParallelism(next); err != nil {
			return res, err
		}
		m = e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	}
	res.Base, res.BestThroughputRPS = reviewHistory(res.History)
	if opts.Tracer.Enabled() {
		// The history review is the paper's "why this k'": maximum
		// throughput, near-ties broken toward fewer slots.
		sp.SetStr("base", res.Base.String())
		sp.SetFloat("best_throughput_rps", res.BestThroughputRPS)
		sp.SetInt("iterations", res.Iterations)
		sp.SetBool("reached_target", res.ReachedTarget)
		sp.SetBool("terminated_by_repeat", res.TerminatedByRepeat)
	}
	// Leave the engine on the selected configuration.
	if err := e.SetParallelism(res.Base); err != nil {
		return res, err
	}
	return res, nil
}

// eq3Step implements Eq. 3: k'_1 = ceil(v_c / v̄_1) at the source;
// downstream operators are sized for the arrival rate their predecessors
// will emit at the new parallelism.
func eq3Step(g *dataflow.Graph, m flink.Measurement, targetRate float64, pmax int) (dataflow.ParallelismVector, error) {
	n := g.NumOperators()
	if len(m.TrueRatePerInstance) != n {
		return nil, fmt.Errorf("core: measurement has %d operators, graph has %d",
			len(m.TrueRatePerInstance), n)
	}
	next := make(dataflow.ParallelismVector, n)
	proj := make([]float64, n) // projected arrival rate at the new config
	for _, src := range g.Sources() {
		proj[src] = targetRate
	}
	for _, i := range g.TopoOrder() {
		v := m.TrueRatePerInstance[i]
		if v <= 0 {
			next[i] = m.Par[i]
		} else {
			k := int(math.Ceil(proj[i] / v))
			if k < 1 {
				k = 1
			}
			if k > pmax {
				k = pmax
			}
			next[i] = k
		}
		// The operator forwards what it can process at the new
		// parallelism (v̄_i × k'_i, bounded by its arrivals).
		capacity := v * float64(next[i])
		out := proj[i]
		if v > 0 && capacity < out {
			out = capacity
		}
		out *= g.Operator(i).Selectivity
		for _, s := range g.Successors(i) {
			proj[s] += out
		}
	}
	return next, nil
}

// reviewHistory picks the configuration with maximum throughput, breaking
// near-ties (within 2%) toward fewer total resources — the paper's review
// step that selects p2=(4,2,1,1,34) over larger capped configurations in
// Fig. 5(b).
func reviewHistory(hist []ThroughputIter) (dataflow.ParallelismVector, float64) {
	if len(hist) == 0 {
		return nil, 0
	}
	var maxT float64
	for _, h := range hist {
		if h.ThroughputRPS > maxT {
			maxT = h.ThroughputRPS
		}
	}
	best := -1
	for i, h := range hist {
		if h.ThroughputRPS < maxT*0.98 {
			continue
		}
		if best == -1 || h.Par.Total() < hist[best].Par.Total() {
			best = i
		}
	}
	return hist[best].Par.Clone(), hist[best].ThroughputRPS
}
