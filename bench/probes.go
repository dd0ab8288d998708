package main

import (
	"time"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/metrics"
	"autrascale/internal/stat"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// Probes: micro-measurements of one call into a layer, taken in the traced
// pass so a workload's spans can be read against the unit costs beneath
// them. Each runs on a fresh fixture and leaves no state behind.

// probeEngine builds the wordcount job at its throughput-optimal
// configuration — the same fixture BenchmarkSimulatorTick uses.
func probeEngine(store *metrics.Store) *flink.Engine {
	eng, err := workloads.NewEngine(workloads.WordCount(), workloads.EngineOptions{
		Seed: 3, InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10}, Store: store,
	})
	if err != nil {
		panic(err) // static fixture
	}
	return eng
}

// probeTickNs is the cost of one Engine.Tick, bare or with a metrics
// store attached (the store grows with every tick, so that probe is
// shorter).
func probeTickNs(withStore bool) float64 {
	n := 200000
	var store *metrics.Store
	if withStore {
		n, store = 20000, metrics.NewStore()
	}
	eng := probeEngine(store)
	eng.Run(600) // past the start-up transient
	t := time.Now()
	for i := 0; i < n; i++ {
		eng.Tick()
	}
	return float64(time.Since(t)) / float64(n)
}

// probeTrialUs is the cost of one planning trial: a rescale plus the
// 30 s + 120 s steady-state measurement every BO iteration pays.
func probeTrialUs() float64 {
	const n = 400
	eng := probeEngine(nil)
	pars := []dataflow.ParallelismVector{{3, 4, 12, 10}, {4, 5, 13, 11}}
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := eng.SetParallelism(pars[i%2]); err != nil {
			panic(err) // no chaos: a rescale cannot fail
		}
		eng.MeasureSteady(30, 120)
	}
	return float64(time.Since(t)) / n / 1e3
}

// probePredictBatchUs is one batched posterior sweep — 64 candidates
// against a 30-point, 4-dimensional surrogate with a reused workspace, the
// inner loop of every bo.Suggest (BenchmarkPredictBatch's fixture).
func probePredictBatchUs() float64 {
	const n, batch, reps = 30, 64, 2000
	rng := stat.NewRNG(6)
	point := func() []float64 {
		return []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	xs, ys := make([][]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = point(), rng.Float64()
	}
	r := gp.New(gp.Matern52{Variance: 1, LengthScale: 3}, 1e-4)
	if err := r.Fit(xs, ys); err != nil {
		panic(err) // static fixture
	}
	cands := make([][]float64, batch)
	for i := range cands {
		cands[i] = point()
	}
	means, variances := make([]float64, batch), make([]float64, batch)
	var ws gp.Workspace
	t := time.Now()
	for i := 0; i < reps; i++ {
		if err := r.PredictBatch(&ws, cands, means, variances); err != nil {
			panic(err)
		}
	}
	return float64(time.Since(t)) / reps / 1e3
}

// flatPredictor is a constant transfer.Predictor for library probes.
type flatPredictor float64

func (p flatPredictor) PredictMean([]float64) float64 { return float64(p) }

// probeNearestNs is the shared library's nearest-rate lookup against 512
// models — the warm-start path every fleet submission takes.
func probeNearestNs() float64 {
	const n, reps = 512, 2_000_000
	lib := transfer.NewModelLibrary()
	for i := 0; i < n; i++ {
		if err := lib.Put(float64(1000+250*i), flatPredictor(i)); err != nil {
			panic(err)
		}
	}
	queries := [...]float64{1000, 64500, 128750, 64625, 3125.5, 12, 9e9}
	t := time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := lib.Nearest(queries[i%len(queries)]); !ok {
			panic("empty library")
		}
	}
	return float64(time.Since(t)) / reps
}

// probeStepIdleUs is one Controller.Step on a settled job: a 60-tick
// monitor window, trigger checks, SLO tracking — and no replan.
func probeStepIdleUs() float64 {
	ctl, err := core.NewController(probeEngine(nil), core.ControllerConfig{
		TargetLatencyMS: workloads.WordCount().TargetLatencyMS, Seed: 3,
	})
	if err != nil {
		panic(err) // static fixture
	}
	if _, err := ctl.Run(7200); err != nil { // through the initial plan
		panic(err)
	}
	var ns []float64
	for len(ns) < 500 {
		t := time.Now()
		ev, err := ctl.Step()
		d := float64(time.Since(t))
		if err != nil {
			panic(err)
		}
		if ev.Action == core.ActionNone {
			ns = append(ns, d)
		}
	}
	return median(ns) / 1e3
}

// probeRecordNs is one Store.Record on an existing series, tags passed as
// a map the way the engine passes them on every tick.
func probeRecordNs() float64 {
	const n = 500000
	store := metrics.NewStore()
	tags := map[string]string{"job": "wordcount-01", "operator": "Count"}
	t := time.Now()
	for i := 0; i < n; i++ {
		store.MustRecord("taskmanager.job.task.trueProcessingRate", tags, float64(i), 29700)
	}
	return float64(time.Since(t)) / n
}
