package core

import (
	"errors"
	"fmt"
	"slices"

	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
)

// bootstrapM is the number of uniform bootstrap samples M (§III-D).
const bootstrapM = 5

// Algorithm1Config parameterizes RunAlgorithm1 (paper Algorithm 1) and
// RunAlgorithm2. The score weight α, EI's ξ, the bootstrap size M, the
// trial window and P_max (always the cluster ceiling) are constants: no
// caller ever varied them.
type Algorithm1Config struct {
	// TargetRate v_c (records/s); used to verify throughput is held.
	TargetRate float64
	// TargetLatencyMS is l_t.
	TargetLatencyMS float64
	// OverAllocationW is the user tolerance w of Eq. 8/9 (default 0.25,
	// which with α = 0.5 gives the paper's benefit threshold 0.9).
	OverAllocationW float64
	// MaxIterations bounds the BO loop after bootstrapping (default 25).
	MaxIterations int
	// Seed drives BO candidate sampling.
	Seed uint64
	// Tracer records decision spans (per-iteration posterior, EI value,
	// Eq. 9 margin, termination reason). nil disables tracing.
	Tracer *trace.Tracer
}

func (c *Algorithm1Config) defaults() error {
	if c.TargetRate <= 0 || c.TargetLatencyMS <= 0 {
		return errors.New("core: TargetRate and TargetLatencyMS must be > 0")
	}
	if c.OverAllocationW == 0 {
		c.OverAllocationW = 0.25
	}
	if c.OverAllocationW < 0 {
		return errors.New("core: OverAllocationW must be >= 0")
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 25
	}
	return nil
}

// Algorithm1Result is the outcome of one planning session, RunAlgorithm1
// or RunAlgorithm2.
type Algorithm1Result struct {
	// Best is the selected configuration: the highest-scoring trial that
	// met the latency target, or the highest-scoring trial overall if
	// none did.
	Best Trial
	// Met reports whether the termination condition of Eq. 9 fired
	// (latency met and benefit score above the threshold).
	Met bool
	// Exhausted reports that the loop ended because every configuration
	// of the search space had been tried (bo.ErrSpaceExhausted) — a small
	// space under a large MaxIterations, not a failure.
	Exhausted bool
	// Threshold is the Eq. 9 benefit threshold that applied.
	Threshold float64
	// Trials logs the configurations run for real, in order, as
	// PhaseBootstrap, PhaseSeed and PhaseBO trials; Algorithm 2's transfer
	// saving is how few there are.
	Trials []Trial
	// EstimatedSamples is the number of pseudo-samples Algorithm 2's
	// transferred model predicted per iteration (0 for Algorithm 1).
	EstimatedSamples int
	// SwitchedToA1 reports that Algorithm 2 reached N_num real samples
	// and finished under Algorithm 1's loop on real data only.
	SwitchedToA1 bool
	// Model is the fitted benefit model, ready to be stored in the model
	// library for later transfer learning.
	Model *gp.Regressor
}

// RunAlgorithm1 executes AuTraScale's Bayesian optimization at a steady
// input rate. base is the throughput-optimal configuration k' from
// OptimizeThroughput, which bounds the search space from below.
func RunAlgorithm1(e *flink.Engine, base dataflow.ParallelismVector, cfg Algorithm1Config) (*Algorithm1Result, error) {
	s, err := newSession(e, base, cfg, "core.algorithm1")
	if err != nil {
		return nil, err
	}
	defer s.sp.End()
	opt, err := s.optimizer(false)
	if err != nil {
		return nil, err
	}
	// Bootstrap phase (§III-D). Termination (Eq. 9) applies only to the
	// iterative recommend-run-judge loop, not to the training design:
	// bootstrap samples exist to teach the surrogate, and a one-hot
	// sample can satisfy Eq. 9's *average* resource ratio while wildly
	// over-provisioning a single operator.
	for _, p := range s.bootstrap {
		if err := s.run(opt, PhaseBootstrap, p); err != nil {
			return nil, err
		}
	}
	if err := s.loop(opt); err != nil {
		return nil, err
	}
	return s.finish()
}

// session is one planning session at one input rate, shared by
// Algorithms 1 and 2: the search problem (space [base, P_max], the Eq. 4
// scorer, the bootstrap set and the Eq. 9 threshold), the real trials and
// iteration reports it accrues, and its span.
type session struct {
	e         *flink.Engine
	cfg       Algorithm1Config
	space     bo.Space
	scorer    bo.Scorer
	bootstrap []dataflow.ParallelismVector
	sp        *trace.ActiveSpan
	res       Algorithm1Result
}

// newSession validates cfg and base, builds the search problem and opens
// the session's span under name.
func newSession(e *flink.Engine, base dataflow.ParallelismVector, cfg Algorithm1Config, name string) (*session, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(base) != e.Graph().NumOperators() {
		return nil, fmt.Errorf("core: base has %d entries, graph has %d operators",
			len(base), e.Graph().NumOperators())
	}
	space, err := bo.NewSpace(base, e.Cluster().MaxParallelism())
	if err != nil {
		return nil, err
	}
	scorer, err := bo.NewScorer(scoreAlpha, cfg.TargetLatencyMS, base)
	if err != nil {
		return nil, err
	}
	bootstrap, err := space.BootstrapSet(bootstrapM)
	if err != nil {
		return nil, err
	}
	s := &session{e: e, cfg: cfg, space: space, scorer: scorer, bootstrap: bootstrap}
	s.res.Threshold = scorer.Threshold(cfg.OverAllocationW)
	s.sp = cfg.Tracer.StartSpan(name)
	if cfg.Tracer.Enabled() {
		s.sp.SetFloat("target_rate", cfg.TargetRate)
		s.sp.SetFloat("target_latency_ms", cfg.TargetLatencyMS)
		s.sp.SetStr("base", base.String())
		s.sp.SetFloat("eq9_threshold", s.res.Threshold)
	}
	return s, nil
}

// optimizer builds a fresh BO optimizer over the session's space; exploit
// selects Algorithm 2's posterior-mean-only mode.
func (s *session) optimizer(exploit bool) (*bo.Optimizer, error) {
	return bo.NewOptimizer(bo.OptimizerConfig{Space: s.space, Seed: s.cfg.Seed, Exploit: exploit, Tracer: s.cfg.Tracer})
}

// run runs configuration p for one policy-running window and logs it,
// scored, as a phase ph trial — the one way a session evaluates a
// configuration for real. A non-nil opt observes the outcome.
func (s *session) run(opt *bo.Optimizer, ph Phase, p dataflow.ParallelismVector) error {
	tr, err := MeasureTrial(&s.res.Trials, s.e, ph, p)
	if err != nil {
		return err
	}
	tr.Score = s.scorer.Score(tr.ProcLatencyMS, p)
	tr.LatencyMet = s.scorer.LatencyMet(tr.ProcLatencyMS)
	if opt == nil {
		return nil
	}
	return opt.Add(bo.Observation{Par: p, Score: tr.Score})
}

// met is Eq. 9's termination test: latency met and the benefit score at
// or above the threshold.
func (s *session) met(tr Trial) bool {
	return tr.LatencyMet && tr.Score >= s.res.Threshold
}

// judge judges the BO iteration the session logged last, on opt's
// suggestion: the trial keeps the suggestion's stats, then Eq. 9 and,
// when tracing, the iteration's span.
func (s *session) judge(opt *bo.Optimizer, spanName string) {
	tr := &s.res.Trials[len(s.res.Trials)-1]
	st, _ := opt.LastSuggestion()
	tr.Suggestion = &st
	s.res.Met = s.met(*tr)
	if !s.cfg.Tracer.Enabled() {
		return
	}
	sp := s.sp.Child(spanName)
	sp.SetInt("iter", s.res.Iterations())
	sp.SetStr("par", tr.Par.String())
	sp.SetFloat("score", tr.Score)
	sp.SetFloat("eq9_margin", tr.Score-s.res.Threshold)
	sp.SetFloat("latency_ms", tr.ProcLatencyMS)
	sp.SetBool("latency_met", tr.LatencyMet)
	sp.SetFloat("posterior_mean", tr.Suggestion.Mean)
	sp.SetFloat("posterior_std", tr.Suggestion.Std)
	sp.SetFloat("acq_value", tr.Suggestion.AcqValue)
	sp.SetStr("acquisition", tr.Suggestion.Acquisition)
	sp.SetStr("selection", tr.Suggestion.Reason)
	sp.SetBool("terminated", s.res.Met)
	sp.End()
}

// loop is Algorithm 1's recommend-run-judge loop on opt, until Eq. 9
// fires, the space is exhausted or the session's iteration budget is
// spent. Acquisition mixes two posterior-mean exploitation steps with one
// EI exploration step, counted from opt's first suggestion: exploitation
// drives the iterate onto the feasible score maximum near the base
// corner, EI covers the space.
func (s *session) loop(opt *bo.Optimizer) error {
	for k := 0; !s.res.Met && s.res.Iterations() < s.cfg.MaxIterations; k++ {
		p, err := opt.SuggestWith(k%3 != 2)
		if errors.Is(err, bo.ErrSpaceExhausted) {
			s.res.Exhausted = true
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.run(opt, PhaseBO, p); err != nil {
			return err
		}
		s.judge(opt, "algorithm1.iteration")
	}
	return nil
}

// finish selects the best trial, leaves the engine on it, fits the
// benefit model for the library and closes the span's attributes.
func (s *session) finish() (*Algorithm1Result, error) {
	res := &s.res
	res.Best = selectBest(res.Trials)
	if s.cfg.Tracer.Enabled() {
		reason := "max-iterations"
		switch {
		case res.Met:
			reason = "eq9-met"
		case res.Exhausted:
			reason = "space-exhausted"
		}
		s.sp.SetStr("termination", reason)
		s.sp.SetInt("bootstrap_runs", res.BootstrapRuns())
		s.sp.SetInt("iterations", res.Iterations())
		s.sp.SetInt("real_runs", len(res.Trials))
		s.sp.SetInt("estimated_samples", res.EstimatedSamples)
		s.sp.SetBool("switched_to_a1", res.SwitchedToA1)
		s.sp.SetBool("met", res.Met)
		s.sp.SetStr("best", res.Best.Par.String())
		s.sp.SetFloat("best_score", res.Best.Score)
		s.sp.SetFloat("eq9_margin", res.Best.Score-res.Threshold)
		s.sp.SetBool("latency_met", res.Best.LatencyMet)
	}
	if res.Best.Par != nil {
		if err := s.e.SetParallelism(res.Best.Par); err != nil {
			return nil, err
		}
	}
	res.Model = fitFinalModel(res.Trials)
	return res, nil
}

// selectBest prefers latency-meeting trials by score; with none, the best
// score overall.
func selectBest(trials []Trial) Trial {
	var best Trial
	found := false
	for _, tr := range trials {
		if !tr.LatencyMet {
			continue
		}
		if !found || tr.Score > best.Score {
			best, found = tr, true
		}
	}
	if found {
		return best
	}
	for _, tr := range trials {
		if tr.Score > best.Score || best.Par == nil {
			best = tr
		}
	}
	return best
}

// fitFinalModel fits the benefit model on the distinct real trials so it
// can be stored in the model library.
func fitFinalModel(trials []Trial) *gp.Regressor {
	var xs [][]float64
	var ys []float64
	for i, tr := range trials {
		if slices.ContainsFunc(trials[:i], func(u Trial) bool { return u.Par.Equal(tr.Par) }) {
			continue
		}
		xs = append(xs, tr.Par.Floats())
		ys = append(ys, tr.Score)
	}
	model, err := transfer.Fit(xs, ys)
	if err != nil {
		return nil
	}
	return model
}
