package core

import (
	"errors"

	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/transfer"
)

// Algorithm2Result is the outcome of RunAlgorithm2.
type Algorithm2Result struct {
	*Algorithm1Result
	// RealRuns is the number of configurations actually executed at the
	// new rate (the transfer saving shows up here: bootstrap
	// configurations are estimated, not run).
	RealRuns int
	// EstimatedSamples is the number of pseudo-samples predicted by the
	// transferred model.
	EstimatedSamples int
	// SwitchedToA1 reports whether N_num was reached and the run finished
	// under plain Algorithm 1.
	SwitchedToA1 bool
}

// RunAlgorithm2 executes AuTraScale's transfer-learning method at a new
// input data rate:
//
//  1. run the base configuration k' once to obtain a first real sample,
//  2. fit a residual GP against the nearest-rate previous model,
//  3. estimate the bootstrap set through μ_c = μ_{c−1} + μ'_c instead of
//     running it,
//  4. run the BO loop with the warm-started surrogate, refitting the
//     residual as real samples accrue,
//  5. after N_num real samples, discard the estimates and continue with
//     Algorithm 1 on real data only. N_num is the bootstrap set's size,
//     per the paper's recommendation that the switch happens once real
//     samples at least match the initial set size.
func RunAlgorithm2(e *flink.Engine, base dataflow.ParallelismVector, prev transfer.Predictor, cfg Algorithm1Config) (*Algorithm2Result, error) {
	if prev == nil {
		return nil, errors.New("core: Algorithm 2 needs a previous model; run Algorithm 1 first")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	space, scorer, err := searchProblem(e, base, cfg.TargetLatencyMS)
	if err != nil {
		return nil, err
	}
	bootstrap, err := space.BootstrapSet(bootstrapM)
	if err != nil {
		return nil, err
	}
	nNum := len(bootstrap)

	out := &Algorithm2Result{Algorithm1Result: &Algorithm1Result{
		Threshold: scorer.Threshold(cfg.OverAllocationW),
	}}
	res := out.Algorithm1Result

	sp := cfg.Tracer.StartSpan("core.algorithm2")
	defer sp.End()
	if cfg.Tracer.Enabled() {
		sp.SetFloat("target_rate", cfg.TargetRate)
		sp.SetStr("base", base.String())
		sp.SetFloat("eq9_threshold", res.Threshold)
		sp.SetInt("n_num", nNum)
	}

	var realSamples []transfer.Sample

	runReal := func(p dataflow.ParallelismVector) (Trial, error) {
		tr, err := runTrial(e, scorer, p)
		if err != nil {
			return Trial{}, err
		}
		res.Trials = append(res.Trials, tr)
		realSamples = append(realSamples, transfer.Sample{X: p.Floats(), Y: tr.Score})
		out.RealRuns++
		return tr, nil
	}

	// Line 1 equivalent: one real sample at the base configuration seeds
	// the residual model.
	tr, err := runReal(base)
	if err != nil {
		return nil, err
	}
	if tr.LatencyMet && tr.Score >= res.Threshold {
		res.Met = true
	}

	for !res.Met && out.RealRuns < nNum && res.Iterations < cfg.MaxIterations {
		// Lines 2–5: fit the residual model on the real samples so far.
		rsp := sp.Child("algorithm2.residual_fit")
		rsp.SetInt("real_samples", len(realSamples))
		rm, err := transfer.FitResidual(prev, realSamples)
		rsp.SetBool("ok", err == nil)
		rsp.End()
		if err != nil {
			return nil, err
		}
		// Lines 6–13: estimate the bootstrap set instead of running it.
		// Exploit mode: the estimated samples make EI's posterior
		// variance meaningless, so follow the transferred mean surface.
		opt, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: cfg.Seed, Exploit: true, Tracer: cfg.Tracer})
		if err != nil {
			return nil, err
		}
		out.EstimatedSamples = 0
		for _, p := range bootstrap {
			if err := opt.Add(bo.Observation{Par: p, Score: rm.PredictMean(p.Floats()), Estimated: true}); err != nil {
				return nil, err
			}
			out.EstimatedSamples++
		}
		for _, s := range realSamples {
			if err := opt.Add(bo.Observation{Par: dataflow.FromFloats(s.X), Score: s.Y}); err != nil {
				return nil, err
			}
		}
		// Line 14: one Algorithm-1 suggestion, executed for real.
		p, err := opt.Suggest()
		if errors.Is(err, bo.ErrSpaceExhausted) {
			res.Exhausted = true
			break
		}
		if err != nil {
			return nil, err
		}
		tr, err := runReal(p)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		if tr.LatencyMet && tr.Score >= res.Threshold {
			res.Met = true
		}
		it := iterationReport(res.Iterations, tr, res.Threshold, opt, res.Met)
		res.Iters = append(res.Iters, it)
		if cfg.Tracer.Enabled() {
			emitIterationSpan(sp.Child("algorithm2.iteration"), it)
		}
	}

	// Lines 17–19: enough real samples — continue with Algorithm 1 on
	// real data only.
	if !res.Met && !res.Exhausted && res.Iterations < cfg.MaxIterations {
		out.SwitchedToA1 = true
		seeds := make([]bo.Observation, 0, len(realSamples))
		for _, s := range realSamples {
			seeds = append(seeds, bo.Observation{Par: dataflow.FromFloats(s.X), Score: s.Y})
		}
		a1cfg := cfg
		a1cfg.SkipBootstrap = true
		a1cfg.MaxIterations = cfg.MaxIterations - res.Iterations
		preIters := res.Iterations
		a1res, err := RunAlgorithm1(e, base, a1cfg, seeds...)
		if err != nil {
			return nil, err
		}
		res.Trials = append(res.Trials, a1res.Trials...)
		for _, it := range a1res.Iters {
			it.Iter += preIters
			res.Iters = append(res.Iters, it)
		}
		res.Iterations += a1res.Iterations
		out.RealRuns += a1res.Iterations
		res.Met = a1res.Met
		res.Exhausted = a1res.Exhausted
	}

	res.Best = selectBest(res.Trials)
	if cfg.Tracer.Enabled() {
		sp.SetInt("real_runs", out.RealRuns)
		sp.SetInt("estimated_samples", out.EstimatedSamples)
		sp.SetBool("switched_to_a1", out.SwitchedToA1)
		sp.SetBool("met", res.Met)
		if res.Exhausted {
			sp.SetStr("termination", "space-exhausted")
		}
		sp.SetStr("best", res.Best.Par.String())
		sp.SetFloat("best_score", res.Best.Score)
		sp.SetFloat("eq9_margin", res.Best.Score-res.Threshold)
	}
	if res.Best.Par != nil {
		if err := e.SetParallelism(res.Best.Par); err != nil {
			return nil, err
		}
	}
	res.Model = fitFinalModel(res.Trials, nil)
	return out, nil
}
