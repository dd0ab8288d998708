package main

import (
	"time"

	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/gp"
	"autrascale/internal/stat"
	"autrascale/internal/transfer"
)

// learnOperatorCounts are Table IV's operator counts.
var learnOperatorCounts = []int{2, 4, 6, 8, 10}

// syntheticScore is Table IV's smooth benefit surface (optimum at 6
// instances per operator) with a little seeded measurement noise, standing
// in for real trial windows.
func syntheticScore(p dataflow.ParallelismVector, rng *stat.RNG) float64 {
	s := 0.9
	for _, k := range p {
		d := float64(k) - 6
		s -= 0.002 * d * d
	}
	return s + 0.002*rng.Normal()
}

// learnSession is one Algorithm 1 session (5 bootstrap points, 15 BO
// iterations) followed by one Algorithm 2 pass that transfers the fitted
// model to a "new rate" from two real samples. No engine is involved:
// bo, gp, mat and transfer do all the work. It returns the Algorithm 2
// recommendation and the best Algorithm 1 observation.
func learnSession(e *env, space bo.Space, seed uint64, run int, ns map[string][]float64) (dataflow.ParallelismVector, bo.Observation, error) {
	rng := stat.NewRNG(seed)
	opt, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: seed})
	if err != nil {
		return nil, bo.Observation{}, err
	}
	bootstrap, err := space.BootstrapSet(5)
	if err != nil {
		return nil, bo.Observation{}, err
	}
	call := func(name string, f func() error) error {
		end := e.span(name, run)
		t := time.Now()
		err := f()
		ns[name] = append(ns[name], float64(time.Since(t)))
		end(0)
		return err
	}
	add := func(o *bo.Optimizer, ob bo.Observation) error {
		return call("bo.add", func() error { return o.Add(ob) })
	}
	for _, p := range bootstrap {
		if err := add(opt, bo.Observation{Par: p, Score: syntheticScore(p, rng)}); err != nil {
			return nil, bo.Observation{}, err
		}
	}
	for i := 0; i < 15; i++ {
		var p dataflow.ParallelismVector
		if err := call("bo.suggest", func() (err error) { p, err = opt.Suggest(); return }); err != nil {
			return nil, bo.Observation{}, err
		}
		if err := add(opt, bo.Observation{Par: p, Score: syntheticScore(p, rng)}); err != nil {
			return nil, bo.Observation{}, err
		}
	}
	best, _ := opt.Best()

	// Algorithm 2: refit the session's model, learn the residual at the
	// new rate from two real samples, seed an exploit optimizer with the
	// estimated bootstrap set, recommend.
	obs := opt.Observations()
	xs, ys := make([][]float64, len(obs)), make([]float64, len(obs))
	for i, ob := range obs {
		xs[i], ys[i] = ob.Par.Floats(), ob.Score
	}
	var fitted *gp.Regressor
	if err := call("gp.fit_auto", func() (err error) {
		fitted, err = gp.FitAuto(xs, ys, gp.FitOptions{Family: gp.FamilyMatern52})
		return
	}); err != nil {
		return nil, bo.Observation{}, err
	}
	base := space.Clamp(dataflow.Uniform(space.Dim(), 2))
	probe := space.RandomPoint(rng)
	real := []transfer.Sample{
		{X: base.Floats(), Y: syntheticScore(base, rng) - 0.05},
		{X: probe.Floats(), Y: syntheticScore(probe, rng) - 0.05},
	}
	var rm *transfer.ResidualModel
	if err := call("transfer.fit_residual", func() (err error) {
		rm, err = transfer.FitResidual(fitted, real)
		return
	}); err != nil {
		return nil, bo.Observation{}, err
	}
	opt2, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: seed + 99, Exploit: true})
	if err != nil {
		return nil, bo.Observation{}, err
	}
	for _, p := range bootstrap {
		if err := add(opt2, bo.Observation{Par: p, Score: rm.PredictMean(p.Floats()), Estimated: true}); err != nil {
			return nil, bo.Observation{}, err
		}
	}
	var rec dataflow.ParallelismVector
	err = call("bo.suggest", func() (err error) { rec, err = opt2.Suggest(); return })
	return rec, best, err
}

// runLearnSynthetic is Table IV at scale: the only workload where
// bo/gp/mat/transfer are all of the work and flink is none of it.
func runLearnSynthetic(e *env) error {
	perCount := e.jobs(e.scaled(328, 8))
	spaces := make([]bo.Space, len(learnOperatorCounts))
	err := e.setup(cheapSetups, func() error {
		for i, n := range learnOperatorCounts {
			space, err := bo.NewSpace(dataflow.Uniform(n, 2), 40)
			if err != nil {
				return err
			}
			spaces[i] = space
			// One throwaway session per operator count fills the GP
			// workspace pools before the clock starts.
			if _, _, err := learnSession(&env{cfg: e.cfg}, space, e.derive("warm", n), -1, map[string][]float64{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	ns := map[string][]float64{}
	run := 0
	// recs keeps every session's outputs alive to the end of the region,
	// as a caller collecting recommendations would.
	type outcome struct {
		rec  dataflow.ParallelismVector
		best bo.Observation
	}
	var recs []outcome
	e.beginRegion()
	for s := 0; s < perCount; s++ {
		for i, space := range spaces {
			endRun := e.span("session", run)
			rec, best, err := learnSession(e, space, e.derive("session", i*1_000_003+s), run, ns)
			endRun(0)
			e.op(err == nil)
			if err != nil {
				e.fail("session %d (%d operators): %v", s, learnOperatorCounts[i], err)
			}
			recs = append(recs, outcome{rec, best})
			run++
		}
	}
	e.endRegion()

	for i, o := range recs {
		space := spaces[i%len(spaces)]
		if o.rec != nil && !space.Contains(o.rec) {
			e.fail("session %d recommended %v outside its search space", i, o.rec)
		}
		// A session that explored 20 points of a surface peaking at 0.9
		// must have found something far above the all-2 corner.
		if o.best.Score < 0.6 {
			e.fail("session %d best score %.3f: the optimizer did not climb", i, o.best.Score)
		}
		e.digestf("%d rec=%v best=%v %.6f", i, o.rec, o.best.Par, o.best.Score)
	}

	e.putDur("bo.suggest_us_p50", "p50", ns["bo.suggest"])
	e.putDur("bo.suggest_busy_s", "sum", ns["bo.suggest"])
	e.put("bo.suggests", float64(len(ns["bo.suggest"])))
	e.putDur("bo.add_us_p50", "p50", ns["bo.add"])
	e.putDur("gp.fit_auto_us_p50", "p50", ns["gp.fit_auto"])
	e.putDur("transfer.fit_residual_us_p50", "p50", ns["transfer.fit_residual"])
	if e.rec != nil {
		e.put("gp.predict_batch_us", probePredictBatchUs())
		e.put("transfer.nearest_ns", probeNearestNs())
	}
	return nil
}
