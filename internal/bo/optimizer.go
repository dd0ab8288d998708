package bo

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/gp"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
)

// expectedImprovement computes the EI acquisition value (paper Eq. 5–7)
// at a point with GP posterior (mean, std), given the best observed value
// fBest and exploration parameter xi:
//
//	K  = μ(x) − f(x⁺) − ξ
//	Z  = K/σ(x)            (0 when σ = 0)
//	EI = K·Φ(Z) + σ·φ(Z)   (0 when σ = 0)
func expectedImprovement(mean, std, fBest, xi float64) float64 {
	if std <= 0 {
		return 0
	}
	k := mean - fBest - xi
	z := k / std
	ei := k*stat.NormCDF(z) + std*stat.NormPDF(z)
	if ei < 0 {
		return 0
	}
	return ei
}

// eiXi is the EI exploration parameter ξ of Eq. 5–7.
const eiXi = 0.01

// Acquisition labels for SuggestionStats.Acquisition.
const (
	// acqEI is expected improvement with ξ (the paper's choice, Eq. 5–7).
	acqEI = "ei"
	// acqMean is pure exploitation of the posterior mean.
	acqMean = "mean"
)

// ErrSpaceExhausted is returned by Suggest when every configuration it
// could propose has already been evaluated for real — a termination
// condition for the caller's loop, not a failure.
var ErrSpaceExhausted = errors.New("bo: no unevaluated candidates remain")

// Observation is one evaluated configuration.
type Observation struct {
	Par   dataflow.ParallelismVector
	Score float64
	// Estimated marks transfer-learning pseudo-samples (Algorithm 2)
	// that came from a previous model rather than a real run.
	Estimated bool
}

// Optimizer maintains the GP surrogate over observed (configuration,
// score) pairs and proposes the next configuration by maximizing EI over
// the lattice.
type Optimizer struct {
	space   Space
	exploit bool
	rng     *stat.RNG
	tracer  *trace.Tracer

	obs   []Observation
	index pointIndex // entry i is obs[i].Par
	model *gp.Regressor
	dirty bool
	// lastStats explains the most recent suggestion (LastSuggestion).
	lastStats SuggestionStats
	haveStats bool
	// appendsSinceFit counts observations folded into the surrogate by
	// incremental Cholesky extension since the last full hyperparameter
	// search; at hyperRefitEvery the next refit redoes the full FitAuto.
	appendsSinceFit int
}

// OptimizerConfig configures NewOptimizer.
type OptimizerConfig struct {
	Space Space
	// Seed drives the candidate sampling.
	Seed uint64
	// Exploit makes Suggest return the posterior-mean maximizer instead
	// of the EI maximizer. Transfer learning (Algorithm 2) uses this:
	// its surrogate is warm-started with *estimated* pseudo-samples, so
	// the posterior variance that EI feeds on is not meaningful — the
	// transferred mean surface is the signal to follow.
	Exploit bool
	// Tracer records a span per suggestion (pool size, chosen candidate,
	// its posterior and acquisition value). nil disables tracing at zero
	// cost on the Suggest hot path.
	Tracer *trace.Tracer
}

// hyperRefitEvery is the number of observations the optimizer folds into
// the surrogate by incremental Cholesky extension before the next refit
// redoes the full hyperparameter search. It balances hyperparameter
// freshness against refit cost: stale length scales for a handful of
// points barely move the acquisition argmax, while a full grid search per
// observation is the dominant cost of Algorithm 1 (Table IV).
const hyperRefitEvery = 5

// NewOptimizer builds an Optimizer.
func NewOptimizer(cfg OptimizerConfig) (*Optimizer, error) {
	if cfg.Space.Dim() == 0 {
		return nil, errors.New("bo: empty space")
	}
	return &Optimizer{
		space:   cfg.Space,
		exploit: cfg.Exploit,
		rng:     stat.NewRNG(cfg.Seed ^ 0x51ab_c0ff_ee12_3457),
		tracer:  cfg.Tracer,
	}, nil
}

// SuggestionStats explains the most recent suggestion: what was chosen,
// the GP posterior there, the acquisition value it won with, and how the
// decision was reached. Algorithm 1's per-iteration trace spans and the
// -explain report are built from this.
type SuggestionStats struct {
	// Mean/Std are the GP posterior at the suggestion when it was chosen.
	Mean, Std float64
	// AcqValue is the acquisition value there (EI; posterior mean when
	// the suggestion came from pure exploitation).
	AcqValue float64
	// Acquisition is the function the suggestion maximized: "ei"
	// (expected improvement) or "mean" (pure exploitation).
	Acquisition string
	// Reason labels the selection path: "acq-max", "exploit-mean",
	// "fallback-mean" (every candidate had zero acquisition value).
	Reason string
}

// LastSuggestion returns the stats of the most recent Suggest call; ok
// is false before the first suggestion.
func (o *Optimizer) LastSuggestion() (SuggestionStats, bool) {
	return o.lastStats, o.haveStats
}

// Observations returns a copy of the recorded observations.
func (o *Optimizer) Observations() []Observation {
	return append([]Observation(nil), o.obs...)
}

// NumReal returns the count of non-estimated observations.
func (o *Optimizer) NumReal() int {
	n := 0
	for _, ob := range o.obs {
		if !ob.Estimated {
			n++
		}
	}
	return n
}

// Add records an observation. A configuration observed twice keeps the
// newest real value (real samples replace estimated ones for the same
// point; an estimated sample never replaces a real one).
//
// When the surrogate is already fitted, a new point is folded into it by
// extending the Cholesky factor in O(n²) (gp.Regressor.Append) instead of
// flagging a full O(n³)-per-grid-candidate refit; the full hyperparameter
// search reruns every hyperRefitEvery appended points, or whenever an
// existing observation's score is replaced.
func (o *Optimizer) Add(ob Observation) error {
	if len(ob.Par) != o.space.Dim() {
		return fmt.Errorf("bo: observation dim %d, want %d", len(ob.Par), o.space.Dim())
	}
	if math.IsNaN(ob.Score) || math.IsInf(ob.Score, 0) {
		return errors.New("bo: non-finite score")
	}
	if i, ok := o.index.find(ob.Par); ok {
		if o.obs[i].Estimated || !ob.Estimated {
			ob.Par = o.obs[i].Par // the index's key; equal to the new one
			o.obs[i] = ob
			o.dirty = true
		}
		return nil
	}
	ob.Par = ob.Par.Clone()
	o.index.insert(ob.Par)
	o.obs = append(o.obs, ob)
	if o.model != nil && !o.dirty && o.appendsSinceFit < hyperRefitEvery-1 {
		if err := o.model.Append(ob.Par.Floats(), ob.Score); err == nil {
			o.appendsSinceFit++
			return nil
		}
		// Non-SPD extension at the current jitter: fall back to a refit.
	}
	o.dirty = true
	return nil
}

// Best returns the highest-scoring observation, real or estimated; it
// returns false when there are none.
func (o *Optimizer) Best() (Observation, bool) {
	if len(o.obs) == 0 {
		return Observation{}, false
	}
	best := o.obs[0]
	for _, ob := range o.obs[1:] {
		if ob.Score > best.Score {
			best = ob
		}
	}
	return best, true
}

// refit rebuilds the GP surrogate (full hyperparameter search) when the
// incremental path could not keep it current.
func (o *Optimizer) refit() error {
	if !o.dirty && o.model != nil {
		return nil
	}
	if len(o.obs) == 0 {
		return gp.ErrNoData
	}
	// FitAuto copies its inputs, so they share one flat buffer here.
	dim := o.space.Dim()
	flat := make([]float64, len(o.obs)*dim)
	xs := make([][]float64, len(o.obs))
	ys := make([]float64, len(o.obs))
	for i, ob := range o.obs {
		x := flat[i*dim : (i+1)*dim]
		for d, k := range ob.Par {
			x[d] = float64(k)
		}
		xs[i] = x
		ys[i] = ob.Score
	}
	model, err := gp.FitAuto(xs, ys, gp.FitOptions{Family: gp.FamilyMatern52})
	if err != nil {
		return err
	}
	o.model = model
	o.dirty = false
	o.appendsSinceFit = 0
	return nil
}

// Suggest proposes the next configuration to evaluate in the optimizer's
// configured mode (OptimizerConfig.Exploit).
func (o *Optimizer) Suggest() (dataflow.ParallelismVector, error) {
	return o.SuggestWith(o.exploit)
}

// resourceTerm is the analytic resource half of the scoring function
// (Eq. 4): known without running, it breaks acquisition near-ties toward
// smaller configurations.
func (o *Optimizer) resourceTerm(p dataflow.ParallelismVector) float64 {
	var s float64
	for i, k := range p {
		s += float64(o.space.Base[i]) / float64(k)
	}
	return s / float64(len(p))
}

// tieBand is the relative band below the acquisition maximum inside which
// candidates count as near-ties and the cheaper configuration wins.
const tieBand = 0.1

// trustAfter is the number of real observations after which the candidate
// pool contracts to a trust region around the incumbent and the base
// corner (see candidatePool).
const trustAfter = 12

// pickNearTie selects the suggestion among scored candidates: the argmax
// of acqVals, except that every eligible candidate within tieBand of the
// maximum is treated as tied and the tie breaks toward the cheaper
// configuration (larger resource term), then the higher acquisition
// value, then the lower index. Returns −1 when no candidate is eligible.
//
// Anchoring the band to the global maximum (two passes) rather than to a
// running best avoids the degenerate streaming cases: there is an
// explicit "no candidate yet" state, a zero maximum makes every zero-EI
// candidate a tie (resolved by cost), and negative values keep a sane
// band below the max.
func pickNearTie(acqVals, resources []float64, eligible []bool) int {
	maxV := math.Inf(-1)
	found := false
	for i, v := range acqVals {
		if !eligible[i] {
			continue
		}
		found = true
		if v > maxV {
			maxV = v
		}
	}
	if !found {
		return -1
	}
	threshold := maxV - tieBand*math.Abs(maxV)
	best := -1
	for i, v := range acqVals {
		if !eligible[i] || v < threshold {
			continue
		}
		switch {
		case best < 0:
			best = i
		case resources[i] > resources[best]:
			best = i
		case resources[i] == resources[best] && v > acqVals[best]:
			best = i
		}
	}
	return best
}

// posterior is a memoized GP prediction; std is NaN when only the mean
// was computed.
type posterior struct{ mean, std float64 }

// evaluated reports whether p has a real (not estimated) observation.
func (o *Optimizer) evaluated(p dataflow.ParallelismVector) bool {
	i, ok := o.index.find(p)
	return ok && !o.obs[i].Estimated
}

// scoreCandidates fills acqVals[i], means[i], stds[i] for each encoded
// candidate xs[i], predicting through the caller's ws so the sweep
// allocates nothing.
func (o *Optimizer) scoreCandidates(ws *gp.Workspace, xs [][]float64, acqVals, means, stds []float64, fBest float64) {
	for i, x := range xs {
		mean, v, err := o.model.PredictWS(ws, x)
		if err != nil {
			acqVals[i] = math.Inf(-1)
			means[i] = math.Inf(-1)
			stds[i] = 0
			continue
		}
		means[i] = mean
		std := math.Sqrt(v)
		stds[i] = std
		acqVals[i] = expectedImprovement(mean, std, fBest, eiXi)
	}
}

// SuggestWith proposes the next configuration to evaluate: the maximizer
// of EI (exploit=false) or of the posterior mean (exploit=true) over a
// candidate pool of random points, neighbors of the best observation and
// near-base samples, refined by hill climbs. Already-evaluated real
// points are excluded; with none left it returns ErrSpaceExhausted. When
// every candidate has zero EI the best posterior-mean unevaluated point is
// returned. Callers that alternate modes per iteration (Algorithm 1 mixes
// exploitation with exploration) use this directly.
//
// The pool is encoded once into a contiguous float buffer and scored;
// the leading EI and posterior-mean candidates are then refined by hill
// climbs whose results re-enter the same selection.
func (o *Optimizer) SuggestWith(exploit bool) (dataflow.ParallelismVector, error) {
	if err := o.refit(); err != nil {
		return nil, err
	}
	best, _ := o.Best()
	fBest := best.Score
	acq := acqEI
	if exploit {
		acq = acqMean
	}

	// All per-suggestion buffers come from the shared scratch pool (the
	// fleet arena): a warm scratch makes the whole sweep-and-climb path
	// allocation-light. Candidates may alias sc.backing, so finish clones
	// whatever escapes before the deferred release recycles the buffers.
	sc := getSuggestScratch()
	defer sc.release()

	candidates := o.candidatePool(sc, best.Par)
	dim := o.space.Dim()
	// Encode the pool once into one backing array: candidate i's float
	// vector is enc[i*dim : (i+1)*dim], shared by scoring and climbs.
	n := len(candidates)
	sc.enc = floatsFor(sc.enc, n*dim, 0)
	enc := sc.enc
	if cap(sc.xs) < n {
		sc.xs = make([][]float64, 0, n)
	}
	xs := sc.xs[:0]
	for i, c := range candidates {
		x := enc[i*dim : (i+1)*dim : (i+1)*dim]
		for d, k := range c {
			x[d] = float64(k)
		}
		xs = append(xs, x)
	}
	sc.xs = xs
	sc.acqVals = floatsFor(sc.acqVals, n, 2)
	sc.means = floatsFor(sc.means, n, 2)
	sc.stds = floatsFor(sc.stds, n, 2)
	sc.resources = floatsFor(sc.resources, n, 2)
	sc.eligible = boolsFor(sc.eligible, n, 2)
	acqVals, means, stds := sc.acqVals, sc.means, sc.stds
	resources, eligible := sc.resources, sc.eligible
	for i, c := range candidates {
		resources[i] = o.resourceTerm(c)
		eligible[i] = !o.evaluated(c)
	}
	// sws serves every stage of this suggestion — sweep, climbs,
	// climb-result scoring — so its scratch buffers are sized once.
	sws := gp.GetWorkspace()
	defer gp.PutWorkspace(sws)
	o.scoreCandidates(sws, xs, acqVals, means, stds, fBest)
	// The hill climbs below revisit pool points heavily (their starts and
	// neighborhoods came from the pool); seed their memo with the sweep's
	// posteriors. sc.points already numbers the pool by position.
	for i := range candidates {
		sc.memo = append(sc.memo, posterior{means[i], stds[i]})
	}

	bestIdx := pickNearTie(acqVals, resources, eligible)
	meanIdx := argmaxEligible(means, eligible)

	// Refine the leading candidates by hill-climbing their objective over
	// the lattice (stronger acquisition optimization than pool scanning
	// alone; narrow score ridges need it): one climb on EI from the pool's
	// EI leader, one on the posterior mean from its mean leader. Their
	// results re-enter the same selection. Both climbs predict through one
	// workspace and one memo; memoized posteriors are the values the model
	// would recompute.
	// A climb point entering the memo is copied into sc.backing: the
	// climbs mutate their vectors in place.
	sc.buf = floatsFor(sc.buf, dim, 0)
	buf := sc.buf
	predict := func(p dataflow.ParallelismVector, needStd bool) posterior {
		entry, ok := sc.points.find(p)
		if ok {
			if pr := sc.memo[entry]; !needStd || !math.IsNaN(pr.std) {
				return pr
			}
		}
		for d, k := range p {
			buf[d] = float64(k)
		}
		var pr posterior
		if needStd {
			mean, v, err := o.model.PredictWS(sws, buf)
			if err != nil {
				return posterior{math.Inf(-1), 0}
			}
			pr = posterior{mean, math.Sqrt(v)}
		} else {
			mean, err := o.model.PredictMeanWS(sws, buf)
			if err != nil {
				return posterior{math.Inf(-1), math.NaN()}
			}
			pr = posterior{mean, math.NaN()}
		}
		if ok {
			sc.memo[entry] = pr
			return pr
		}
		key := sc.carve(dim)
		copy(key, p)
		sc.points.insert(key)
		sc.memo = append(sc.memo, pr)
		return pr
	}
	results := make([]dataflow.ParallelismVector, 0, 2)
	if bestIdx >= 0 {
		ei := func(p dataflow.ParallelismVector) float64 {
			pr := predict(p, true)
			return expectedImprovement(pr.mean, pr.std, fBest, eiXi)
		}
		results = append(results, o.hillClimb(sc, candidates[bestIdx], ei))
	}
	if meanIdx >= 0 {
		mean := func(p dataflow.ParallelismVector) float64 { return predict(p, false).mean }
		results = append(results, o.hillClimb(sc, candidates[meanIdx], mean))
	}
	// Score the climb results (a handful of points) and re-run the
	// selection over the extended arrays.
	for _, p := range results {
		for d, k := range p {
			buf[d] = float64(k)
		}
		mean, v, err := o.model.PredictWS(sws, buf)
		if err != nil {
			continue
		}
		std := math.Sqrt(v)
		candidates = append(candidates, p)
		acqVals = append(acqVals, expectedImprovement(mean, std, fBest, eiXi))
		means = append(means, mean)
		stds = append(stds, std)
		resources = append(resources, o.resourceTerm(p))
		eligible = append(eligible, !o.evaluated(p))
	}
	bestIdx = pickNearTie(acqVals, resources, eligible)
	meanIdx = argmaxEligible(means, eligible)

	// finish records the explanation of the chosen candidate
	// (LastSuggestion, plus a trace span when enabled) and returns it.
	// The chosen vector is cloned: candidate storage may alias the pooled
	// scratch, which the deferred release hands back for reuse.
	finish := func(idx int, reason string) (dataflow.ParallelismVector, error) {
		par := candidates[idx].Clone()
		av := acqVals[idx]
		if reason != reasonAcqMax {
			av = means[idx]
		}
		o.lastStats = SuggestionStats{
			Mean:        means[idx],
			Std:         stds[idx],
			AcqValue:    av,
			Acquisition: acq,
			Reason:      reason,
		}
		o.haveStats = true
		if o.tracer.Enabled() {
			nEligible := 0
			for _, e := range eligible {
				if e {
					nEligible++
				}
			}
			sp := o.tracer.StartSpan("bo.suggest")
			sp.SetStr("par", par.String())
			sp.SetStr("reason", reason)
			sp.SetStr("acquisition", acq)
			sp.SetInt("pool", len(candidates))
			sp.SetInt("eligible", nEligible)
			sp.SetInt("observations", len(o.obs))
			sp.SetFloat("posterior_mean", means[idx])
			sp.SetFloat("posterior_std", stds[idx])
			sp.SetFloat("acq_value", av)
			sp.SetFloat("f_best", fBest)
			sp.End()
		}
		return par, nil
	}

	if exploit && meanIdx >= 0 {
		return finish(meanIdx, reasonExploitMean)
	}
	if bestIdx < 0 {
		if meanIdx < 0 {
			return nil, ErrSpaceExhausted
		}
		return finish(meanIdx, reasonFallbackMean)
	}
	if acqVals[bestIdx] <= 0 && meanIdx >= 0 {
		return finish(meanIdx, reasonFallbackMean)
	}
	return finish(bestIdx, reasonAcqMax)
}

// Selection-path labels for SuggestionStats.Reason.
const (
	// reasonAcqMax: the acquisition maximizer won (near-tie rule applied).
	reasonAcqMax = "acq-max"
	// reasonExploitMean: exploitation mode returned the posterior-mean
	// maximizer directly.
	reasonExploitMean = "exploit-mean"
	// reasonFallbackMean: every candidate had zero acquisition value, so
	// the best posterior-mean unevaluated point was returned.
	reasonFallbackMean = "fallback-mean"
)

// argmaxEligible returns the first index maximizing vals among eligible
// entries, or −1 if none.
func argmaxEligible(vals []float64, eligible []bool) int {
	best := -1
	for i, v := range vals {
		if !eligible[i] {
			continue
		}
		if best < 0 || v > vals[best] {
			best = i
		}
	}
	return best
}

// hillClimb coordinate-descends objective (maximizing) over the lattice
// starting at p, trying ±{1,2,4,8} per coordinate, until no move improves
// or the evaluation budget is spent. Longer jumps are the candidate pool's
// job — climb starts already won a sweep that included ±16 neighbors of
// the incumbent. Evaluated real points may be traversed but never
// returned. The climb mutates two working vectors carved from sc, so it
// allocates nothing.
func (o *Optimizer) hillClimb(sc *suggestScratch, p dataflow.ParallelismVector, objective func(dataflow.ParallelismVector) float64) dataflow.ParallelismVector {
	cur := sc.carve(len(p))
	copy(cur, p)
	q := sc.carve(len(p))
	curV := objective(cur)
	budget := 200
	improved := true
	for improved && budget > 0 {
		improved = false
		for dim := 0; dim < len(cur) && budget > 0; dim++ {
			for _, step := range [...]int{-8, -4, -2, -1, 1, 2, 4, 8} {
				copy(q, cur)
				k := q[dim] + step
				// Only coordinate dim moved; clamp it alone.
				if k < o.space.Base[dim] {
					k = o.space.Base[dim]
				}
				if k > o.space.PMax {
					k = o.space.PMax
				}
				if k == cur[dim] {
					continue
				}
				q[dim] = k
				budget--
				if v := objective(q); v > curV {
					cur, q = q, cur
					curV = v
					improved = true
					break
				}
			}
		}
	}
	if o.evaluated(cur) {
		return p // fall back to the start; caller filters evaluated points
	}
	return cur
}

// candidatePool gathers lattice candidates: random points, neighborhood
// of the incumbent at several step sizes, dense near-base samples, and
// the space corners. Once enough real observations exist, the pool
// contracts to a trust region around the incumbent and the base corner
// (TuRBO-style), trading global exploration for convergence.
//
// Every candidate is carved from sc.backing and deduplicated by value in
// sc.points, which numbers it by its pool position. The pool itself lives
// in sc (recycled per suggestion), so a warm scratch makes the whole pool
// construction allocation-free.
func (o *Optimizer) candidatePool(sc *suggestScratch, incumbent dataflow.ParallelismVector) []dataflow.ParallelismVector {
	pool := sc.candidates[:0]
	dim := o.space.Dim()
	// keep appends p, the most recent carve, to the pool, or gives its
	// storage back when p is outside the space or a duplicate.
	keep := func(p dataflow.ParallelismVector) {
		if o.space.Contains(p) {
			if _, added := sc.points.insert(p); added {
				pool = append(pool, p)
				return
			}
		}
		sc.uncarve(dim)
	}
	localOnly := o.NumReal() >= trustAfter
	if !localOnly {
		const randomCount = 256
		for i := 0; i < randomCount; i++ {
			p := sc.carve(dim)
			o.space.RandomPointInto(o.rng, p)
			keep(p)
		}
	}
	// Densely sample near the base corner: the scoring function's
	// resource term is maximal at base, so the optimum sits on the
	// latency-feasibility boundary close to it. Cubic-biased offsets
	// keep most candidates within a few steps of base while still
	// reaching deeper occasionally. Once the pool has contracted to the
	// trust region, the hill climbs do the fine-grained refinement and a
	// sparser blanket suffices.
	nearBaseCount := 128
	if localOnly {
		nearBaseCount = 64
	}
	for i := 0; i < nearBaseCount; i++ {
		p := sc.carve(dim)
		copy(p, o.space.Base)
		for d := range p {
			r := o.rng.Float64()
			span := o.space.PMax - o.space.Base[d]
			if span > 24 {
				span = 24
			}
			off := int(r * r * r * float64(span+1))
			if off > span {
				off = span
			}
			p[d] += off
		}
		// Offsets are capped at span = PMax − Base[d], so p is in-bounds
		// by construction — no clamp pass needed.
		keep(p)
	}
	if incumbent != nil {
		for _, step := range [...]int{1, 2, 4, 8, 16} {
			sc.neighbors(o.space, incumbent, step, keep)
		}
	}
	base := sc.carve(dim)
	copy(base, o.space.Base)
	keep(base)
	if !localOnly {
		top := sc.carve(dim)
		for d := range top {
			top[d] = o.space.PMax
		}
		keep(top)
	}
	sc.candidates = pool
	return pool
}
