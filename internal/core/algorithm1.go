package core

import (
	"errors"
	"fmt"

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
	// SkipBootstrap starts the BO loop from pre-seeded observations
	// (used by Algorithm 2, which replaces bootstrap runs with estimated
	// samples).
	SkipBootstrap bool
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

// Trial is one evaluated configuration with its QoS outcome.
type Trial struct {
	Par           dataflow.ParallelismVector
	Score         float64
	ProcLatencyMS float64
	ThroughputRPS float64
	LatencyMet    bool
	CPUUsedCores  float64
	MemUsedMB     float64
}

// Algorithm1Result is the outcome of RunAlgorithm1.
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
	// Iterations counts BO iterations (excluding bootstrap runs).
	Iterations int
	// BootstrapRuns counts configurations evaluated during bootstrap.
	BootstrapRuns int
	Trials        []Trial
	// Iters explains each BO iteration: the posterior/acquisition values
	// that selected the configuration plus its measured outcome — the
	// raw material for decision reports and trace spans.
	Iters []IterationReport
	// Model is the fitted benefit model, ready to be stored in the model
	// library for later transfer learning.
	Model *gp.Regressor
}

// RunAlgorithm1 executes AuTraScale's Bayesian optimization at a steady
// input rate. base is the throughput-optimal configuration k' from
// OptimizeThroughput, which bounds the search space from below.
//
// Pre-seeded observations (Algorithm 2's estimated samples) can be passed
// via seedObs; combined with SkipBootstrap they realize the transfer
// warm start.
func RunAlgorithm1(e *flink.Engine, base dataflow.ParallelismVector, cfg Algorithm1Config, seedObs ...bo.Observation) (*Algorithm1Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(base) != e.Graph().NumOperators() {
		return nil, fmt.Errorf("core: base has %d entries, graph has %d operators",
			len(base), e.Graph().NumOperators())
	}
	space, scorer, err := searchProblem(e, base, cfg.TargetLatencyMS)
	if err != nil {
		return nil, err
	}
	opt, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: cfg.Seed, Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	for _, ob := range seedObs {
		if err := opt.Add(ob); err != nil {
			return nil, err
		}
	}

	res := &Algorithm1Result{Threshold: scorer.Threshold(cfg.OverAllocationW)}

	sp := cfg.Tracer.StartSpan("core.algorithm1")
	defer sp.End()
	if cfg.Tracer.Enabled() {
		sp.SetFloat("target_rate", cfg.TargetRate)
		sp.SetFloat("target_latency_ms", cfg.TargetLatencyMS)
		sp.SetStr("base", base.String())
		sp.SetFloat("eq9_threshold", res.Threshold)
		sp.SetInt("seed_obs", len(seedObs))
		sp.SetBool("skip_bootstrap", cfg.SkipBootstrap)
	}

	evaluate := func(p dataflow.ParallelismVector) (Trial, error) {
		tr, err := runTrial(e, scorer, p)
		if err != nil {
			return Trial{}, err
		}
		res.Trials = append(res.Trials, tr)
		if err := opt.Add(bo.Observation{Par: p, Score: tr.Score}); err != nil {
			return Trial{}, err
		}
		return tr, nil
	}

	terminated := func(tr Trial) bool {
		return tr.LatencyMet && tr.Score >= res.Threshold
	}

	// Bootstrap phase (§III-D). Termination (Eq. 9) applies only to the
	// iterative recommend-run-judge loop, not to the training design:
	// bootstrap samples exist to teach the surrogate, and a one-hot
	// sample can satisfy Eq. 9's *average* resource ratio while wildly
	// over-provisioning a single operator.
	if !cfg.SkipBootstrap {
		set, err := space.BootstrapSet(bootstrapM)
		if err != nil {
			return nil, err
		}
		for _, p := range set {
			if _, err := evaluate(p); err != nil {
				return nil, err
			}
			res.BootstrapRuns++
		}
	}

	// BO loop. Acquisition mixes two posterior-mean exploitation steps
	// with one EI exploration step: exploitation drives the iterate onto
	// the feasible score maximum near the base corner, EI covers the
	// space.
	for !res.Met && res.Iterations < cfg.MaxIterations {
		p, err := opt.SuggestWith(res.Iterations%3 != 2)
		if errors.Is(err, bo.ErrSpaceExhausted) {
			res.Exhausted = true
			break
		}
		if err != nil {
			return nil, err
		}
		tr, err := evaluate(p)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		if terminated(tr) {
			res.Met = true
		}
		it := iterationReport(res.Iterations, tr, res.Threshold, opt, res.Met)
		res.Iters = append(res.Iters, it)
		if cfg.Tracer.Enabled() {
			emitIterationSpan(sp.Child("algorithm1.iteration"), it)
		}
	}

	res.Best = selectBest(res.Trials)
	if cfg.Tracer.Enabled() {
		reason := "max-iterations"
		switch {
		case res.Met:
			reason = "eq9-met"
		case res.Exhausted:
			reason = "space-exhausted"
		}
		sp.SetStr("termination", reason)
		sp.SetInt("bootstrap_runs", res.BootstrapRuns)
		sp.SetInt("iterations", res.Iterations)
		sp.SetStr("best", res.Best.Par.String())
		sp.SetFloat("best_score", res.Best.Score)
		sp.SetFloat("eq9_margin", res.Best.Score-res.Threshold)
		sp.SetBool("latency_met", res.Best.LatencyMet)
	}
	// Leave the engine on the selected configuration and expose the
	// fitted model for the library.
	if res.Best.Par != nil {
		if err := e.SetParallelism(res.Best.Par); err != nil {
			return nil, err
		}
	}
	res.Model = fitFinalModel(res.Trials, seedObs)
	return res, nil
}

// searchProblem builds what Algorithms 1 and 2 share at one input rate:
// the search space [base, P_max] and the Eq. 4 scorer.
func searchProblem(e *flink.Engine, base dataflow.ParallelismVector, targetLatencyMS float64) (bo.Space, bo.Scorer, error) {
	space, err := bo.NewSpace(base, e.Cluster().MaxParallelism())
	if err != nil {
		return bo.Space{}, bo.Scorer{}, err
	}
	scorer, err := bo.NewScorer(scoreAlpha, targetLatencyMS, base)
	return space, scorer, err
}

// runTrial runs configuration p for one policy-running window and scores
// it — the one way Algorithms 1 and 2 evaluate a configuration for real.
func runTrial(e *flink.Engine, scorer bo.Scorer, p dataflow.ParallelismVector) (Trial, error) {
	m, err := MeasureTrial(e, p)
	if err != nil {
		return Trial{}, err
	}
	return Trial{
		Par:           p.Clone(),
		Score:         scorer.Score(m.ProcLatencyMS, p),
		ProcLatencyMS: m.ProcLatencyMS,
		ThroughputRPS: m.ThroughputRPS,
		LatencyMet:    scorer.LatencyMet(m.ProcLatencyMS),
		CPUUsedCores:  m.CPUUsedCores,
		MemUsedMB:     m.MemUsedMB,
	}, nil
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

// iterationReport assembles the per-iteration explanation from the
// optimizer's last suggestion stats and the measured trial.
func iterationReport(iter int, tr Trial, threshold float64, opt *bo.Optimizer, terminated bool) IterationReport {
	it := IterationReport{
		Iter:          iter,
		Par:           tr.Par,
		Score:         tr.Score,
		ProcLatencyMS: tr.ProcLatencyMS,
		LatencyMet:    tr.LatencyMet,
		Eq9Margin:     tr.Score - threshold,
		Terminated:    terminated,
	}
	if st, ok := opt.LastSuggestion(); ok {
		it.PosteriorMean = st.Mean
		it.PosteriorStd = st.Std
		it.AcqValue = st.AcqValue
		it.Acquisition = st.Acquisition
		it.Selection = st.Reason
	}
	return it
}

// emitIterationSpan writes one IterationReport as a child span. Callers
// guard with Tracer.Enabled() so attribute formatting never runs on the
// disabled path.
func emitIterationSpan(sp *trace.ActiveSpan, it IterationReport) {
	sp.SetInt("iter", it.Iter)
	sp.SetStr("par", it.Par.String())
	sp.SetFloat("score", it.Score)
	sp.SetFloat("eq9_margin", it.Eq9Margin)
	sp.SetFloat("latency_ms", it.ProcLatencyMS)
	sp.SetBool("latency_met", it.LatencyMet)
	sp.SetFloat("posterior_mean", it.PosteriorMean)
	sp.SetFloat("posterior_std", it.PosteriorStd)
	sp.SetFloat("acq_value", it.AcqValue)
	sp.SetStr("acquisition", it.Acquisition)
	sp.SetStr("selection", it.Selection)
	sp.SetBool("terminated", it.Terminated)
	sp.End()
}

// fitFinalModel fits the benefit model on all real trials (plus seeds) so
// it can be stored in the model library.
func fitFinalModel(trials []Trial, seeds []bo.Observation) *gp.Regressor {
	var xs [][]float64
	var ys []float64
	seen := map[string]bool{}
	for _, tr := range trials {
		if seen[tr.Par.Key()] {
			continue
		}
		seen[tr.Par.Key()] = true
		xs = append(xs, tr.Par.Floats())
		ys = append(ys, tr.Score)
	}
	for _, s := range seeds {
		if s.Estimated || seen[s.Par.Key()] {
			continue
		}
		seen[s.Par.Key()] = true
		xs = append(xs, s.Par.Floats())
		ys = append(ys, s.Score)
	}
	if len(xs) == 0 {
		return nil
	}
	model, err := transfer.Fit(xs, ys)
	if err != nil {
		return nil
	}
	return model
}
