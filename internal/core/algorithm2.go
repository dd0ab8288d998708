package core

import (
	"errors"

	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/transfer"
)

// RunAlgorithm2 executes AuTraScale's transfer-learning method at a new
// input data rate:
//
//  1. run the base configuration k' once to obtain a first real sample,
//  2. fit a residual GP against the nearest-rate previous model,
//  3. estimate the bootstrap set through μ_c = μ_{c−1} + μ'_c instead of
//     running it,
//  4. run the BO loop with the warm-started surrogate, refitting the
//     residual as real samples accrue,
//  5. after N_num real samples, discard the estimates and continue the
//     same session under Algorithm 1's loop on real data only. N_num is
//     the bootstrap set's size, per the paper's recommendation that the
//     switch happens once real samples at least match the initial set
//     size.
func RunAlgorithm2(e *flink.Engine, base dataflow.ParallelismVector, prev transfer.Predictor, cfg Algorithm1Config) (*Algorithm1Result, error) {
	if prev == nil {
		return nil, errors.New("core: Algorithm 2 needs a previous model; run Algorithm 1 first")
	}
	s, err := newSession(e, base, cfg, "core.algorithm2")
	if err != nil {
		return nil, err
	}
	defer s.sp.End()
	res := &s.res
	nNum := len(s.bootstrap)
	if cfg.Tracer.Enabled() {
		s.sp.SetInt("n_num", nNum)
	}

	// Line 1 equivalent: one real sample at the base configuration seeds
	// the residual model.
	if err := s.run(nil, PhaseSeed, base); err != nil {
		return nil, err
	}
	res.Met = s.met(res.Trials[0])

	for !res.Met && len(res.Trials) < nNum && res.Iterations() < s.cfg.MaxIterations {
		// Lines 2–5: fit the residual model on the real samples so far.
		samples := make([]transfer.Sample, len(res.Trials))
		for i, t := range res.Trials {
			samples[i] = transfer.Sample{X: t.Par.Floats(), Y: t.Score}
		}
		rsp := s.sp.Child("algorithm2.residual_fit")
		rsp.SetInt("real_samples", len(samples))
		rm, err := transfer.FitResidual(prev, samples)
		rsp.SetBool("ok", err == nil)
		rsp.End()
		if err != nil {
			return nil, err
		}
		// Lines 6–13: estimate the bootstrap set instead of running it.
		// Exploit mode: the estimated samples make EI's posterior
		// variance meaningless, so follow the transferred mean surface.
		opt, err := s.optimizer(true)
		if err != nil {
			return nil, err
		}
		for _, p := range s.bootstrap {
			if err := opt.Add(bo.Observation{Par: p, Score: rm.PredictMean(p.Floats()), Estimated: true}); err != nil {
				return nil, err
			}
		}
		res.EstimatedSamples = len(s.bootstrap)
		if err := addTrials(opt, res.Trials); err != nil {
			return nil, err
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
		// The next iteration's optimizer observes it with the rest.
		if err := s.run(nil, PhaseBO, p); err != nil {
			return nil, err
		}
		s.judge(opt, "algorithm2.iteration")
	}

	// Lines 17–19: enough real samples — continue with Algorithm 1's loop
	// on real data only.
	if !res.Met && !res.Exhausted && res.Iterations() < s.cfg.MaxIterations {
		res.SwitchedToA1 = true
		opt, err := s.optimizer(false)
		if err != nil {
			return nil, err
		}
		if err := addTrials(opt, res.Trials); err != nil {
			return nil, err
		}
		if err := s.loop(opt); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// addTrials adds the real trials to opt as observations.
func addTrials(opt *bo.Optimizer, trials []Trial) error {
	for _, tr := range trials {
		if err := opt.Add(bo.Observation{Par: tr.Par, Score: tr.Score}); err != nil {
			return err
		}
	}
	return nil
}
