// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus micro-benchmarks for the numerical
// core. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report headline quantities as custom metrics
// (e.g. parallelism savings) so `go test -bench` output doubles as a
// compact reproduction summary; EXPERIMENTS.md records the full
// paper-vs-measured comparison.
package autrascale_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"autrascale/internal/audit"
	"autrascale/internal/bo"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/experiments"
	"autrascale/internal/fleet"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/mat"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// BenchmarkFig1 reproduces Fig. 1: fixed parallelism under a rising rate.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(experiments.Fig1Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Series[len(res.Series)-1]
		b.ReportMetric(last.LagRecords, "final-lag-records")
	}
}

// BenchmarkFig2 reproduces Fig. 2: uniform parallelism sweep at 300k rps.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(experiments.Fig2Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].ThroughputRPS, "throughput-at-k2-rps")
	}
}

// BenchmarkFig5 reproduces Fig. 5: throughput optimization per workload.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.Fig5Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		var iters int
		for _, w := range res.Workloads {
			iters += w.Iterations
		}
		b.ReportMetric(float64(iters)/float64(len(res.Workloads)), "mean-iterations")
	}
}

// BenchmarkTable2 reproduces Table II (+ the scale-up half of Figs. 6/7).
func BenchmarkTable2(b *testing.B) {
	benchElasticity(b, experiments.ScaleUp)
}

// BenchmarkTable3 reproduces Table III (+ the scale-down half of
// Figs. 6/7).
func BenchmarkTable3(b *testing.B) {
	benchElasticity(b, experiments.ScaleDown)
}

func benchElasticity(b *testing.B, sc experiments.Scenario) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunElasticity(sc, experiments.ElasticityOptions{Seed: uint64(100 + i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Savings("DRS(observed)"), "savings-vs-DRS-observed-%")
		b.ReportMetric(100*res.Savings("DRS(true)"), "savings-vs-DRS-true-%")
	}
}

// BenchmarkFig6 is the latency view over both elasticity scenarios.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range []experiments.Scenario{experiments.ScaleUp, experiments.ScaleDown} {
			res, err := experiments.RunElasticity(sc, experiments.ElasticityOptions{Seed: uint64(100 + i)})
			if err != nil {
				b.Fatal(err)
			}
			for _, j := range res.Jobs {
				if m := j.Method("AuTraScale"); m != nil && !m.LatencyMet {
					b.Fatalf("%s/%s: AuTraScale violates latency", sc, j.Workload)
				}
			}
		}
	}
}

// BenchmarkFig7 is the parallelism view over both elasticity scenarios.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var auTra, obs int
		for _, sc := range []experiments.Scenario{experiments.ScaleUp, experiments.ScaleDown} {
			res, err := experiments.RunElasticity(sc, experiments.ElasticityOptions{Seed: uint64(100 + i)})
			if err != nil {
				b.Fatal(err)
			}
			for _, j := range res.Jobs {
				auTra += j.Method("AuTraScale").TotalParallelism
				obs += j.Method("DRS(observed)").TotalParallelism
			}
		}
		b.ReportMetric(float64(auTra), "autrascale-total-slots")
		b.ReportMetric(float64(obs), "drs-observed-total-slots")
	}
}

// BenchmarkFig8 reproduces Fig. 8: transfer learning vs DS2 on a rate
// change.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(experiments.Fig8Options{Seed: uint64(300 + i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Savings(func(m experiments.Fig8Method) float64 {
			return float64(m.TotalParallelism)
		}), "parallelism-savings-%")
	}
}

// BenchmarkTable4 reproduces Table IV: algorithm overhead vs operator
// count.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(experiments.Table4Options{Seed: uint64(i), Repeats: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Alg1TrainSec*1e3, "alg1-train-10ops-ms")
	}
}

// ---- Micro-benchmarks for the numerical core ----
//
// Timings are pinned nowhere: a benchmark's ns/op drifts by tens of
// percent between runs of unchanged code, so time is judged only end to
// end, by `go run ./bench compare` over interleaved parent/change pairs,
// on the ledger workload named in each benchmark's comment. What is
// pinned is allocations, which are deterministic: a benchmark below with
// an allocation contract names the AllocsPerRun test that holds it, and
// shares with that test the fixture that builds its operation.

// BenchmarkCholesky measures the GP's dominant linear-algebra kernel.
func BenchmarkCholesky(b *testing.B) {
	rng := stat.NewRNG(1)
	n := 64
	a := new(mat.Matrix)
	a.Resize(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			a.RawRow(i)[j] = v
			a.RawRow(j)[i] = v
		}
		a.RawRow(i)[i] += float64(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(mat.Cholesky).Factor(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOp times b.N calls of op.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchRuns times b.N operations that each need fresh state: newRun
// builds one run's state off the clock and returns the op to time.
func benchRuns(b *testing.B, newRun func() func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op := newRun()
		b.StartTimer()
		op()
	}
}

// randomPoint returns a uniform point of [0, 10)^4.
func randomPoint(rng *stat.RNG) []float64 {
	return []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
}

// gpFitPredictOp is one surrogate refit on 30 samples plus one
// prediction, the sample count Algorithm 1 works with.
func gpFitPredictOp(tb testing.TB) func() {
	rng := stat.NewRNG(2)
	const n = 30
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = randomPoint(rng), rng.Float64()
	}
	return func() {
		r := gp.New(gp.Matern52{Variance: 1, LengthScale: 3}, 1e-4)
		if err := r.Fit(xs, ys); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := r.Predict([]float64{5, 5, 5, 5}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkGPFitPredict measures one surrogate refit + prediction.
// TestAllocationContracts holds its allocs/op; learn-synthetic watches
// its time.
func BenchmarkGPFitPredict(b *testing.B) { benchOp(b, gpFitPredictOp(b)) }

// gpAppendBase is the fitted sample count BenchmarkGPAppend appends to;
// the model is refitted at this size once it doubles.
const gpAppendBase = 32

// gpAppendFixture fits a surrogate on gpAppendBase points. appendOne
// folds the next of gpAppendBase held-out points into it and returns
// how many remain; at 0 the caller refits with reset before appending
// again.
func gpAppendFixture(tb testing.TB) (appendOne func() (left int), reset func()) {
	rng := stat.NewRNG(5)
	xs := make([][]float64, gpAppendBase)
	ys := make([]float64, gpAppendBase)
	for i := range xs {
		xs[i], ys[i] = randomPoint(rng), rng.Float64()
	}
	extra := make([][]float64, gpAppendBase)
	for i := range extra {
		extra[i] = randomPoint(rng)
	}
	var r *gp.Regressor
	n := 0
	reset = func() {
		r = gp.New(gp.Matern52{Variance: 1, LengthScale: 3}, 1e-4)
		if err := r.Fit(xs, ys); err != nil {
			tb.Fatal(err)
		}
		n = 0
	}
	reset()
	return func() int {
		if err := r.Append(extra[n], rng.Float64()); err != nil {
			tb.Fatal(err)
		}
		n++
		return gpAppendBase - n
	}, reset
}

// BenchmarkGPAppend measures folding one observation into a fitted
// surrogate via the incremental Cholesky extension (O(n²) per point vs a
// full refactorization). The model is reset once it doubles so the
// reported cost stays at realistic sample counts. TestAllocationContracts
// holds its allocs/op; learn-synthetic watches its time.
func BenchmarkGPAppend(b *testing.B) {
	appendOne, reset := gpAppendFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if appendOne() == 0 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
	}
}

// BenchmarkPredictBatch measures a batched posterior sweep with reused
// workspace buffers; the steady state runs at 0 allocs/op, which
// gp.TestPredictBatchMatchesPredict holds. learn-synthetic watches its
// time.
func BenchmarkPredictBatch(b *testing.B) {
	rng := stat.NewRNG(6)
	const n, batch = 30, 64
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = randomPoint(rng), rng.Float64()
	}
	r := gp.New(gp.Matern52{Variance: 1, LengthScale: 3}, 1e-4)
	if err := r.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	cands := make([][]float64, batch)
	for i := range cands {
		cands[i] = randomPoint(rng)
	}
	means := make([]float64, batch)
	variances := make([]float64, batch)
	var ws gp.Workspace
	benchOp(b, func() {
		if err := r.PredictBatch(&ws, cands, means, variances); err != nil {
			b.Fatal(err)
		}
	})
}

// boSuggestRuns builds, per run, a fresh optimizer holding 15 random
// observations (seeded by run number) and returns its one Suggest.
func boSuggestRuns(tb testing.TB) func() func() {
	space, err := bo.NewSpace(dataflow.ParallelismVector{3, 4, 12, 10}, 60)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stat.NewRNG(4)
	var seed uint64
	return func() func() {
		opt, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		seed++
		for j := 0; j < 15; j++ {
			if err := opt.Add(bo.Observation{Par: space.RandomPoint(rng), Score: rng.Float64()}); err != nil {
				tb.Fatal(err)
			}
		}
		return func() {
			if _, err := opt.Suggest(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkBOSuggest measures one full suggestion (refit + candidate pool
// + EI maximization) at realistic observation counts.
// TestAllocationContracts holds its allocs/op; learn-synthetic watches
// its time.
func BenchmarkBOSuggest(b *testing.B) { benchRuns(b, boSuggestRuns(b)) }

// BenchmarkSimulatorTick measures the cost of one simulated second of the
// WordCount job, as a fleet runs it: the measurement window is reset
// every 60 ticks, the way Controller.Step does once per policy window.
// flink.TestTickAllocatesNothing holds it at 0 allocs/op;
// fleet-steady-10k watches its time.
func BenchmarkSimulatorTick(b *testing.B) {
	e, err := workloads.NewEngine(workloads.WordCount(), workloads.EngineOptions{
		Seed:               3,
		InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	benchTicks(b, e)
}

// benchTicks times b.N ticks of e in 60-tick measurement windows.
func benchTicks(b *testing.B, e *flink.Engine) {
	i := 0
	benchOp(b, func() {
		if i%60 == 0 {
			e.ResetWindow()
		}
		i++
		e.Tick()
	})
}

// BenchmarkEngineTickStore is BenchmarkSimulatorTick with a metrics
// store attached, the way metricsd and `autrascale -jobs` run every
// engine: one tick plus its 16 series appends (4 job-level, 3 per
// operator) through the engine's resolved handles.
// flink.TestTickAllocatesNothing holds its store-attached tick at
// 0 allocs/op and telemetry-soak watches the monitoring overhead's time;
// `make profile PROFILE_BENCH=BenchmarkEngineTickStore$$` profiles it.
func BenchmarkEngineTickStore(b *testing.B) {
	e, err := workloads.NewEngine(workloads.WordCount(), workloads.EngineOptions{
		Seed:               3,
		InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10},
		Store:              metrics.NewStore(),
	})
	if err != nil {
		b.Fatal(err)
	}
	// The warm-up only resolves the handles: a series keeps just its newest
	// sample, so there is no retention to fill.
	e.Run(2048)
	benchTicks(b, e)
}

// BenchmarkStoreAppend measures one sample through a resolved series
// handle: the out-of-order check and a field write under the series
// lock. metrics.TestAppendAllocatesNothing holds it at 0 allocs/op and
// telemetry-soak watches its time.
func BenchmarkStoreAppend(b *testing.B) {
	h := metrics.NewStore().Series(metrics.MetricTrueProcessingRate,
		map[string]string{"job": "wordcount-01", "operator": "Count"})
	i := 0
	benchOp(b, func() {
		if err := h.Append(float64(i), 29700); err != nil {
			b.Fatal(err)
		}
		i++
	})
}

// BenchmarkTraceOverhead measures the disabled-tracer no-op path that the
// instrumented hot loops (bo.Suggest, the MAPE step) go through when no
// tracer is configured. Each op performs 64 full span lifecycles —
// StartSpan, typed attribute sets, a child span, End — against a nil
// *trace.Tracer. trace.TestDisabledPathZeroAlloc holds the disabled path
// at 0 allocs/op, so instrumentation can never allocate on it; the
// enabled path's allocations are held by the BenchmarkFleetTickTraced
// row of allocContracts.
func BenchmarkTraceOverhead(b *testing.B) {
	var tracer *trace.Tracer
	benchOp(b, func() {
		for j := 0; j < 64; j++ {
			sp := tracer.StartSpan("bo.suggest")
			sp.SetStr("par", "(3, 4, 12, 10)")
			sp.SetFloat("posterior_mean", 0.9)
			sp.SetFloat("posterior_std", 0.05)
			sp.SetFloat("acq_value", 0.01)
			sp.SetInt("pool", 256)
			sp.SetBool("eligible", true)
			child := sp.Child("algorithm1.iteration")
			child.SetInt("iter", j)
			child.End()
			sp.End()
		}
		if tracer.Enabled() {
			b.Fatal("nil tracer must report disabled")
		}
	})
}

// steadyFleet is an 8-job fleet run past every job's initial Algorithm 1
// session, so a round measures steady-state stepping, not planning. tracer
// may be nil (untraced).
func steadyFleet(tb testing.TB, tracer *trace.Tracer) *fleet.Fleet {
	fl, err := fleet.New(fleet.Config{TotalCores: 256, Seed: 9, Tracer: tracer})
	if err != nil {
		tb.Fatal(err)
	}
	for _, js := range fleet.StaggeredJobs(workloads.WordCount(), 8, 0) {
		if err := fl.Submit(js); err != nil {
			tb.Fatal(err)
		}
	}
	fl.RunUntil(7200)
	return fl
}

// BenchmarkFleetTick measures one scheduler round of an 8-job fleet in
// steady state (a round is 8 MAPE monitor windows sharded across the
// worker pool): the control plane's recurring cost per 60 simulated
// seconds. TestAllocationContracts holds its allocs/op; fleet-steady-10k
// watches the per-round time.
func BenchmarkFleetTick(b *testing.B) {
	fl := steadyFleet(b, nil)
	benchOp(b, func() { fl.Round() })
	b.StopTimer()
	jobs, _ := fl.JobsPage(0, 0)
	for _, j := range jobs {
		if j.State != fleet.StateRunning {
			b.Fatalf("job %s left running state: %s (%s)", j.Name, j.State, j.Error)
		}
	}
}

// tracedSteadyFleet is steadyFleet with a default-capacity tracer and
// flight recorder attached, as cmd/metricsd attaches them.
func tracedSteadyFleet(tb testing.TB) *fleet.Fleet {
	tracer := trace.New(trace.DefaultCapacity)
	tracer.AttachFlight(trace.NewFlightRecorder(0))
	return steadyFleet(tb, tracer)
}

// BenchmarkFleetTickTraced is BenchmarkFleetTick with the tracer and
// flight recorder attached: the steady round's spans, written through
// each job's conduit and flushed into the ring at the barrier.
// TestAllocationContracts holds its allocs/op.
func BenchmarkFleetTickTraced(b *testing.B) {
	fl := tracedSteadyFleet(b)
	benchOp(b, func() { fl.Round() })
}

// fleet10k lazily builds and warms the 10,000-job fleet shared by every
// BenchmarkFleetTick10k iteration (and every -count repetition in the
// same process); construction simulates a few hundred seconds of fleet
// time, so it runs once.
var fleet10k struct {
	once sync.Once
	fl   *fleet.Fleet
	err  error
}

func fleet10kSetup() (*fleet.Fleet, error) {
	const (
		jobs = 10000
		// One tick is 1% of the 60 s policy interval, so in steady state
		// ~1% of jobs fall due per tick — the idle-heavy regime the timer
		// wheel exists for (the legacy scan paid O(jobs) per tick here).
		roundSec = 0.6
		donors   = 16
	)
	fl, err := fleet.New(fleet.Config{
		TotalCores: jobs*32 + 1024,
		RoundSec:   roundSec,
		Seed:       11,
	})
	if err != nil {
		return nil, err
	}
	specs := fleet.StaggeredJobs(workloads.WordCount(), jobs, 0)
	// A handful of cold donors run full planning sessions and publish
	// their benefit models, so the other 99.8% of submissions warm-start
	// with short sessions instead of 10k full Algorithm 1 runs.
	for _, js := range specs[:donors] {
		if err := fl.Submit(js); err != nil {
			return nil, err
		}
	}
	fl.RunUntil(1800)
	// Submit the bulk in batches with rounds in between: each batch gets
	// a different submission offset, spreading due times across ticks
	// instead of synchronizing all 10k jobs onto the same round.
	for i := donors; i < len(specs); {
		end := min(i+100, len(specs))
		for _, js := range specs[i:end] {
			if err := fl.Submit(js); err != nil {
				return nil, err
			}
		}
		i = end
		fl.Round()
	}
	// Run everyone past their (warm-started) planning session so timed
	// ticks measure steady-state monitoring, not planning.
	fl.RunUntil(fl.Now() + 600)
	return fl, nil
}

// fleet10kFixture returns the shared 10,000-job fleet, building it on
// first use.
func fleet10kFixture(b *testing.B) *fleet.Fleet {
	fleet10k.once.Do(func() { fleet10k.fl, fleet10k.err = fleet10kSetup() })
	if fleet10k.err != nil {
		b.Fatal(fleet10k.err)
	}
	return fleet10k.fl
}

// BenchmarkFleetTick10k measures one scheduler round of a 10,000-job
// fleet in the idle-heavy steady state: the tick is 1% of the policy
// interval, so ~100 jobs are due and ~9,900 are not. The tick must stay
// near O(due) — the timer wheel pops due entries instead of scanning
// every job, and the barrier visits only the jobs that stepped.
// fleet-steady-10k watches its time end to end.
func BenchmarkFleetTick10k(b *testing.B) {
	fl := fleet10kFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Round()
	}
	b.StopTimer()
	running := 0
	jobs, _ := fl.JobsPage(0, 0)
	for _, j := range jobs {
		if j.State == fleet.StateRunning {
			running++
		} else {
			b.Fatalf("job %s left running state: %s (%s)", j.Name, j.State, j.Error)
		}
	}
	b.ReportMetric(float64(running), "jobs")
}

// expositionOp renders a 10,000-series store (plus 64 counters and 64
// histograms) to the Prometheus text format into a fresh buffer, the way
// every scrape after a store's first does.
func expositionOp(tb testing.TB) func() {
	store := metrics.NewStore()
	for i := 0; i < 10000; i++ {
		store.MustRecord("autrascale.fleet.lag",
			map[string]string{"job": fmt.Sprintf("job-%05d", i)}, float64(i), float64(i*3))
	}
	for i := 0; i < 64; i++ {
		tags := map[string]string{"job": fmt.Sprintf("job-%05d", i)}
		store.Counter("autrascale.decisions", tags).Add(float64(i))
		h := store.Histogram("autrascale.bo.iterations", tags, []float64{1, 2, 5, 10, 20})
		for k := 0; k <= i%7; k++ {
			h.Observe(float64(k * 3))
		}
	}
	op := func() {
		var buf bytes.Buffer
		if err := store.WriteExposition(&buf); err != nil {
			tb.Fatal(err)
		}
		if buf.Len() == 0 {
			tb.Fatal("empty exposition")
		}
	}
	// The first scrape renders and caches every series' label prefix
	// (~120k allocations at this size). Left in the timed region it was
	// amortized over b.N, so allocs/op depended on b.N.
	op()
	return op
}

// BenchmarkExposition10k measures rendering a 10,000-series store to the
// Prometheus text format — the /metrics scrape cost at fleet scale.
// TestAllocationContracts holds its allocs/op; telemetry-soak (and
// metricsd-http's scrape_ms) watch its time.
func BenchmarkExposition10k(b *testing.B) { benchOp(b, expositionOp(b)) }

// flatPredictor is a minimal transfer.Predictor for library benchmarks.
type flatPredictor float64

func (p flatPredictor) PredictMean([]float64) float64 { return float64(p) }

// libraryNearestOp is one nearest-rate lookup in a 512-model library,
// cycling through exact hits, midpoints, and both out-of-range sides.
func libraryNearestOp(tb testing.TB) func() {
	lib := transfer.NewModelLibrary()
	const n = 512
	for i := 0; i < n; i++ {
		if err := lib.Put(float64(1000+250*i), flatPredictor(i)); err != nil {
			tb.Fatal(err)
		}
	}
	queries := [...]float64{1000, 64500, 128750, 64625, 3125.5, 12, 9e9}
	i := 0
	return func() {
		if _, ok := lib.Nearest(queries[i%len(queries)]); !ok {
			tb.Fatal("empty library")
		}
		i++
	}
}

// BenchmarkLibraryNearest measures the shared model library's
// nearest-rate lookup — the warm-start hot path every fleet submission
// takes. The copy-on-write snapshot makes it a lock-free binary search:
// TestAllocationContracts holds it at 0 allocs/op, and the ledger's
// transfer.nearest_ns watches its time.
func BenchmarkLibraryNearest(b *testing.B) { benchOp(b, libraryNearestOp(b)) }

// journalDecodeOp parses and validates a 4096-record flight journal back
// into an audit.Journal; size is the journal's length in bytes.
func journalDecodeOp(tb testing.TB) (op func(), size int) {
	tr := trace.New(0)
	const n = 4096
	tr.AttachFlight(trace.NewFlightRecorder(n))
	for i := 0; i < n; i++ {
		kind := trace.KindBOIteration
		if i%16 == 0 {
			kind = trace.KindDecision
		}
		tr.Emit(trace.Record{
			Corr: uint64(1 + i/16), TimeSec: float64(i) * 60, Kind: kind,
			Job: fmt.Sprintf("job-%03d", i%64),
			Attrs: map[string]any{
				"iter": i % 16, "posterior_mean": 0.9, "eligible": i%3 == 0,
			},
		})
	}
	var blob bytes.Buffer
	if err := tr.Flight().WriteJSONL(&blob, 0); err != nil {
		tb.Fatal(err)
	}
	return func() {
		j, err := audit.ReadJournal(bytes.NewReader(blob.Bytes()))
		if err != nil {
			tb.Fatal(err)
		}
		if len(j.Records) != n || len(j.Gaps) != 0 {
			tb.Fatalf("decoded %d records, %d gaps", len(j.Records), len(j.Gaps))
		}
	}, blob.Len()
}

// BenchmarkJournalDecode measures parsing and validating a 4096-record
// flight journal back into an audit.Journal — the cost floor under every
// flightctl subcommand and the /debug/audit endpoint.
// TestAllocationContracts holds its allocs/op; telemetry-soak's
// audit.read_journal_ms watches its time.
func BenchmarkJournalDecode(b *testing.B) {
	op, size := journalDecodeOp(b)
	b.SetBytes(int64(size))
	benchOp(b, op)
}

// policyStepRuns is the fixture of the policy-step benchmarks: per run,
// a fresh engine and policy name with a steady monitor window measured;
// the op is the one Plan call the controller pays per trigger.
func policyStepRuns(name string) func(testing.TB) func() func() {
	spec := workloads.WordCount()
	return func(tb testing.TB) func() func() {
		return func() func() {
			e, err := workloads.NewEngine(spec, workloads.EngineOptions{Seed: 12})
			if err != nil {
				tb.Fatal(err)
			}
			pol, err := policy.Build(name, policy.Env{
				TargetLatencyMS: spec.TargetLatencyMS,
				Seed:            12,
			})
			if err != nil {
				tb.Fatal(err)
			}
			m := e.MeasureSteady(30, 120)
			return func() {
				res, err := pol.Plan(e, core.PlanRequest{
					Trigger: core.TriggerRateChange,
					RateRPS: spec.DefaultRateRPS,
					Window:  m,
					TimeSec: e.Now(),
				})
				if err != nil {
					tb.Fatal(err)
				}
				if res.Par == nil {
					tb.Fatal("nil plan")
				}
			}
		}
	}
}

// BenchmarkPolicyStepBO is the BO/transfer planner's per-trigger cost
// under the Policy interface: one full planning session, its setup off
// the clock. TestAllocationContracts holds its allocs/op; plan-storm's
// plan_p50_ms watches its time.
func BenchmarkPolicyStepBO(b *testing.B) { benchRuns(b, policyStepRuns("bo")(b)) }

// BenchmarkPolicyStepDS2 is the DS2 adapter's per-trigger cost: the
// loop Fig. 8 runs, rule at utilization 0.75 then measure, until the
// rule's fixed point, the throughput target or 10 judged windows.
func BenchmarkPolicyStepDS2(b *testing.B) { benchRuns(b, policyStepRuns("ds2")(b)) }

// BenchmarkPolicyStepDRS is the DRS(true) adapter's per-trigger cost:
// the loop Tables II/III run, calibrating the latency fit on every
// judged window, until latency is met with nothing cheaper on offer or
// 25 windows.
func BenchmarkPolicyStepDRS(b *testing.B) { benchRuns(b, policyStepRuns("drs-true")(b)) }

// BenchmarkSnapshot10k measures a full durable-snapshot capture of the
// 10,000-job fleet: the state walk under the fleet lock (control state
// copies plus immutable COW library snapshots) and the versioned,
// checksummed serialization. This is the cost the periodic checkpointer
// pays per checkpoint — the capture half on the tick path, the encode
// half in the background — and snapshot-cycle-10k watches it end to end.
// The encode half streams and allocates a constant few objects
// (persist.TestEncodeAllocations); the capture's copies are what remain.
// Declared after the other fleet benchmarks on purpose: each capture
// copies a fleet's control state, and the grown heap would tax every
// benchmark that runs behind it in the same process.
func BenchmarkSnapshot10k(b *testing.B) {
	fl := fleet10kFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := fl.PersistState()
		if err := persist.Encode(io.Discard, st); err != nil {
			b.Fatal(err)
		}
		if len(st.Jobs) != 10000 {
			b.Fatalf("snapshot holds %d jobs, want 10000", len(st.Jobs))
		}
	}
}

// BenchmarkRestore10k measures the read side of that snapshot: Decode of
// the encoded 10,000-job fleet (read the header, verify the checksum,
// decode the payload once) plus fleet.Restore (refit each model of the
// table once, share it among the libraries that reference it, rebuild
// every job). It
// is the restore a crashed daemon pays, and snapshot-cycle-10k's
// restore_s watches it end to end. Declared after BenchmarkSnapshot10k
// for the same reason.
func BenchmarkRestore10k(b *testing.B) {
	var blob bytes.Buffer
	if err := persist.Encode(&blob, fleet10kFixture(b).PersistState()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := persist.Decode(bytes.NewReader(blob.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		fl, err := fleet.Restore(st, fleet.RestoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n := fl.Snapshot().Jobs; n != 10000 {
			b.Fatalf("restored %d jobs, want 10000", n)
		}
	}
}

// shared adapts a fixture whose op carries no per-run state to the
// per-run form allocContracts takes.
func shared(fixture func(testing.TB) func()) func(testing.TB) func() func() {
	return func(tb testing.TB) func() func() {
		op := fixture(tb)
		return func() func() { return op }
	}
}

// allocContracts pins the allocations per op of every benchmark whose
// subject has no zero-allocation test of its own. (The zero pins of the
// disabled tracer, the series append, the bare and store-attached tick
// and the batched GP prediction live next to their subjects:
// trace.TestDisabledPathZeroAlloc, metrics.TestAppendAllocatesNothing,
// flink.TestTickAllocatesNothing and gp.TestPredictBatchMatchesPredict.)
// Each row measures the op its benchmark times, built by the same
// fixture. A ceiling is the allocs/op the retired timing gate had
// recorded, unless the row says otherwise: growth fails tier-1, and a
// drop is a reason to tighten the row.
var allocContracts = []struct {
	bench   string  // the benchmark whose op is measured
	max     float64 // allocs/op
	runs    int
	fixture func(testing.TB) (newRun func() func())
}{
	{"BenchmarkLibraryNearest", 0, 100, shared(libraryNearestOp)},
	// A warm Suggest allocates the same few objects whatever its pool
	// size: the refit's inputs and model and the returned vector. The row
	// averages 100 seeds, and its ceiling is that average exactly, so one
	// extra allocation per call fails it.
	{"BenchmarkBOSuggest", 14, 100, boSuggestRuns},
	// One model's worth of appends (runs plus the warm-up call), so no
	// refit falls inside the measurement.
	{"BenchmarkGPAppend", 4, gpAppendBase - 1, shared(func(tb testing.TB) func() {
		appendOne, _ := gpAppendFixture(tb)
		return func() { appendOne() }
	})},
	{"BenchmarkGPFitPredict", 10, 20, shared(gpFitPredictOp)},
	// A steady round allocates only the closure of each worker goroutine
	// it starts: one per GOMAXPROCS (1 at 1, 2 at 2, 4 at 4, 8 at 8), as
	// its steps and scheduling allocate nothing. The ceiling admits up to
	// 4.
	{"BenchmarkFleetTick", 4, 20, shared(func(tb testing.TB) func() {
		fl := steadyFleet(tb, nil)
		return func() { fl.Round() }
	})},
	// The same round traced as cmd/metricsd traces it: 27 spans, one
	// allocation each, the GOMAXPROCS worker closures and 6 more (34 at
	// 1, 37 at 4). A job's "par" text is formatted once per rescale
	// (flink.Engine.ParallelismText); formatted on every traced window,
	// its 16 texts made 50 at 1, and spans whose attribute slices grew
	// one append at a time made 200.
	{"BenchmarkFleetTickTraced", 37, 20, shared(func(tb testing.TB) func() {
		fl := tracedSteadyFleet(tb)
		return func() { fl.Round() }
	})},
	// A planning session is a serial, seeded loop: 165 at any GOMAXPROCS.
	// A trial keeps the vector it ran, so logging a window copies none.
	{"BenchmarkPolicyStepBO", 165, 5, policyStepRuns("bo")},
	// Ceilings measured on the loops Fig. 8 and Tables II/III run: 16
	// and 22 at any GOMAXPROCS. DS2's choice is its last logged trial's
	// vector, and DRS's log is sized for its iteration budget up front.
	{"BenchmarkPolicyStepDS2", 16, 5, policyStepRuns("ds2")},
	{"BenchmarkPolicyStepDRS", 22, 5, policyStepRuns("drs-true")},
	{"BenchmarkJournalDecode", 83222, 3, shared(func(tb testing.TB) func() {
		op, _ := journalDecodeOp(tb)
		return op
	})},
	// The retired gate read 165-197 here: the first scrape's one-off
	// prefix rendering amortized over b.N. A steady-state scrape is the
	// caller's output buffer growing.
	{"BenchmarkExposition10k", 6, 10, shared(expositionOp)},
}

// TestAllocationContracts holds every allocContracts row under plain
// `go test`. Per-run state is built before measuring, and the garbage
// collector is off while measuring: a collection empties the sync.Pools
// that Suggest's scratch and the exposition buffer come from, and the
// refill would be charged to whichever op ran next.
func TestAllocationContracts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race: sync.Pool drops items at random")
	}
	for _, c := range allocContracts {
		t.Run(c.bench, func(t *testing.T) {
			newRun := c.fixture(t)
			ops := make([]func(), c.runs+1) // AllocsPerRun calls once more to warm up
			for i := range ops {
				ops[i] = newRun()
			}
			next := 0
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(c.runs, func() {
				ops[next]()
				next++
			})
			if got > c.max {
				t.Errorf("%v allocs/op, contract is <= %v", got, c.max)
			}
		})
	}
}

// TestRestoreLibraryAllocatesLinearly restores a shared library of
// 10,000 references to a one-entry model table and holds the bytes
// allocated to a linear budget far below one refit per reference (~830 B
// for such a model): the table entry is fitted once and shared, and
// storing the library adds O(1) per reference. A copy-on-write Put per
// reference would allocate 24 B × n²/2, ~1.2 GB here.
func TestRestoreLibraryAllocatesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const n, perRef = 10000, 128
	refs := make([]persist.ModelRef, n)
	for i := range refs {
		refs[i] = persist.ModelRef{RateRPS: float64(1000 + i)}
	}
	st := &persist.FleetState{
		TotalCores: 1, RoundSec: 60,
		Shared: []persist.SharedLibraryState{{Signature: "wordcount", Models: refs}},
		Models: []persist.ModelState{{Inputs: [][]float64{{3}}, Targets: []float64{0.5}}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fl, err := fleet.Restore(st, fleet.RestoreOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fl.SharedModelRates()["wordcount"]); got != n {
		t.Fatalf("restored %d models, want %d", got, n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n*perRef {
		t.Errorf("restoring %d references allocated %d B, budget %d B (%d B per reference)", n, got, n*perRef, perRef)
	}
}

// TestPublishAllocatesLinearly publishes n new models at one round
// barrier into a shared library of m and holds the bytes that m adds to
// the round to a linear budget: the barrier stores each signature's new
// models with one PutAll, copying the library once, where a Put per model
// would copy it n times (24 B × n·m, ~15 MB here). The n jobs are clones
// of one steady WordCount job, each holding one model it has not
// published yet, so the round is the same work whatever m is.
func TestPublishAllocatesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const n, m, perModel = 64, 10000, 64
	donor, err := fleet.New(fleet.Config{TotalCores: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Submit(fleet.StaggeredJobs(workloads.WordCount(), 1, 0)[0]); err != nil {
		t.Fatal(err)
	}
	donor.RunUntil(1800)
	tmpl := donor.PersistState()
	if len(tmpl.Jobs[0].Library) == 0 || len(tmpl.Shared) != 1 {
		t.Fatal("the template job published no model")
	}
	const newRate = 5e6 // above every rate the template or the library holds
	roundBytes := func(shared int) uint64 {
		st := *tmpl
		st.TotalCores = n * 32
		st.Shared = []persist.SharedLibraryState{tmpl.Shared[0]}
		st.Shared[0].Models = slices.Clone(tmpl.Shared[0].Models)
		for i := 0; i < shared; i++ {
			st.Shared[0].Models = append(st.Shared[0].Models, persist.ModelRef{RateRPS: float64(1e6 + i)})
		}
		st.Jobs = make([]persist.JobState, n)
		for i := range st.Jobs {
			js := tmpl.Jobs[0]
			js.Name = fmt.Sprintf("clone-%02d", i)
			js.DueAtSec = st.NowSec // due at the next round
			js.Library = append(slices.Clone(js.Library), persist.ModelRef{RateRPS: newRate + float64(i)})
			st.Jobs[i] = js
		}
		fl, err := fleet.Restore(&st, fleet.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Empty the sync.Pools and keep them empty: both rounds start cold.
		runtime.GC()
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fl.Round()
		runtime.ReadMemStats(&after)
		published := 0
		for _, rate := range fl.SharedModelRates()["wordcount"] {
			if rate >= newRate {
				published++
			}
		}
		if published != n {
			t.Fatalf("the round published %d of the clones' %d new models", published, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base, full := roundBytes(0), roundBytes(m)
	if full > base+m*perModel {
		t.Errorf("publishing %d models into a library of %d allocated %d B more than into an empty one, budget %d B (%d B per stored model)",
			n, m, full-base, m*perModel, perModel)
	}
}

// BenchmarkAblation runs the design-choice ablations (transfer vs scratch
// vs unified model; true vs observed metric; kernel families).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(experiments.AblationOptions{Seed: uint64(500 + i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Transfer {
			if row.Strategy == "Algorithm2 (transfer)" {
				b.ReportMetric(float64(row.RealRuns), "transfer-real-runs")
			}
		}
	}
}
