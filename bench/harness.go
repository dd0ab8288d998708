package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/stat"
	"autrascale/internal/transfer"
)

// passConfig selects one pass of one workload — exactly what the PR
// driver passes on the command line, plus the job-count scale the smoke
// tests shrink.
type passConfig struct {
	Workload string
	Seed     uint64
	// Seconds sizes the fixed work so the timed region takes about this
	// long on the reference box (2 vCPU); it scales rounds, runs and
	// cycles, never job counts.
	Seconds float64
	// Scale multiplies job counts (1 outside tests).
	Scale  float64
	Traced bool
	OutDir string
}

// metricDetail is one reported metric. N is the sample count behind a
// timing; Fallback marks an end-to-end metric that does not apply to the
// workload and carries the workload's wall time instead (see README).
type metricDetail struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	Fallback bool    `json:"fallback,omitempty"`
}

// passResult is everything one pass measured.
type passResult struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Scale    float64  `json:"scale"`
	Traced   bool     `json:"traced"`
	Correct  bool     `json:"correct"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed_ops"`
	Failures []string `json:"failures,omitempty"`
	// Digest is the SHA-256 of the simulated outcome: identical between
	// the untraced and traced pass and between worker counts.
	Digest  string                  `json:"digest"`
	WallS   float64                 `json:"pass_wall_s"`
	Metrics map[string]metricDetail `json:"metrics"`
}

// env is the harness state a workload measures into.
type env struct {
	cfg passConfig
	rec *spanRecorder // nil in the untraced pass
	tmp string        // scratch directory inside the checkout

	metrics  map[string]metricDetail
	ops      int
	failed   int
	failures []string
	digest   hash.Hash

	// parent is the span a policy decorator hangs its plan spans under:
	// the harness stores the id of the Step or Round span it is inside.
	parent atomic.Int64

	regionStart        time.Time
	regionLo, regionHi int64 // the timed region on the span recorder's clock
	memBefore          runtime.MemStats
	// clockBound names end-to-end timings that sleeping, not computing,
	// sets (the daemon paces itself against the wall clock): they are
	// reported as measured, never scaled by the calibration.
	clockBound map[string]bool
	// calib are the calibration kernel's three readings (see calibWindow):
	// at start-up, before the region, after the region.
	calib [3]float64
}

func newEnv(cfg passConfig) (*env, error) {
	e := &env{cfg: cfg, metrics: map[string]metricDetail{}, digest: sha256.New()}
	e.parent.Store(-1)
	if cfg.Traced {
		e.rec = newSpanRecorder()
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.OutDir, "tmp-"+cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	e.calib[0] = calibWindow()
	return e, nil
}

// derive mixes the run seed with a stream tag and index: every fleet
// seed, controller seed and route schedule comes from here, so the same
// --seed gives the same inputs and selecting a subset of workloads never
// shifts another workload's inputs.
func (e *env) derive(tag string, i int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, e.cfg.Workload+"/"+tag)
	return stat.NewRNG(e.cfg.Seed ^ h.Sum64() ^ uint64(i)*0x9e3779b97f4a7c15).Uint64()
}

// scaled sizes a work count by --seconds: ref units of work take about
// refSeconds on the reference box.
func (e *env) scaled(ref int, refSeconds float64) int {
	return max(1, int(math.Round(float64(ref)*e.cfg.Seconds/refSeconds)))
}

// jobs sizes a job count by -scale (tests only; 1 in real runs).
func (e *env) jobs(n int) int { return max(1, int(math.Round(float64(n)*e.cfg.Scale))) }

// fail records a broken invariant: the pass reports correct=false and
// the process exits non-zero.
func (e *env) fail(format string, args ...any) {
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation; ok=false counts it failed as well.
func (e *env) op(ok bool) {
	e.ops++
	if !ok {
		e.failed++
	}
}

// put records a scalar metric in the unit metricUnits gives it.
func (e *env) put(name string, v float64) {
	e.metrics[name] = metricDetail{Value: v, Unit: unitOf(name)}
}

// unitPerNs converts nanoseconds into a time unit.
var unitPerNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// putDur records a duration metric from nanosecond samples: stat is
// "p50", "p95", "p99", "max" or "sum". Percentiles obey the
// minTailSamples rule — a refused percentile is a harness bug (the
// workload sized too few samples), so it fails the pass.
func (e *env) putDur(name, stat string, ns []float64) {
	unit := unitOf(name)
	div, ok := unitPerNs[unit]
	if !ok {
		panic("bench: " + name + " has non-time unit " + unit)
	}
	if len(ns) == 0 {
		return
	}
	var v float64
	switch stat {
	case "p50":
		v = median(ns)
	case "max":
		v = sorted(ns)[len(ns)-1]
	case "sum":
		for _, x := range ns {
			v += x
		}
	default:
		var p float64
		if _, err := fmt.Sscanf(stat, "p%g", &p); err != nil {
			panic("bench: unknown statistic " + stat)
		}
		var err error
		if v, err = percentile(ns, p); err != nil {
			e.fail("%s: %v", name, err)
			return
		}
	}
	e.metrics[name] = metricDetail{Value: v / div, Unit: unit, N: len(ns)}
}

// putTail records a per-layer tail latency: the wanted percentile when the
// sample supports it under the minTailSamples rule, else the highest one
// below it that it does (p95 wants 200 samples; 150 give p90). N tells
// which: a reader divides ten by the share beyond.
func (e *env) putTail(name string, want float64, ns []float64) {
	if _, v, ok := highestPercentile(ns, want); ok {
		e.metrics[name] = metricDetail{Value: v / unitPerNs[unitOf(name)], Unit: unitOf(name), N: len(ns)}
	}
}

// value reads a metric back (0 when unset).
func (e *env) value(name string) float64 { return e.metrics[name].Value }

// digestf folds one line of simulated outcome into the digest.
func (e *env) digestf(format string, args ...any) {
	fmt.Fprintf(e.digest, format, args...)
	io.WriteString(e.digest, "\n")
}

// span opens a harness span under the current parent; the returned
// function closes it.
func (e *env) span(name string, run int) func(value float64) {
	if e.rec == nil {
		return func(float64) {}
	}
	parent := int(e.parent.Load())
	id := e.rec.begin(name, parent, run)
	e.parent.Store(int64(id))
	return func(value float64) {
		e.rec.end(id, value)
		e.parent.Store(int64(parent))
	}
}

// timed runs f inside a span and returns its wall time in nanoseconds.
func (e *env) timed(name string, run int, f func()) float64 {
	end := e.span(name, run)
	t := time.Now()
	f()
	d := time.Since(t)
	end(0)
	return float64(d)
}

// beginRegion starts the timed region: the heap is collected first so
// alloc_mb and the GC counters charge the region only.
func (e *env) beginRegion() {
	e.calib[1] = calibWindow()
	runtime.GC()
	runtime.ReadMemStats(&e.memBefore)
	if e.rec != nil {
		e.regionLo = int64(time.Since(e.rec.epoch))
	}
	e.regionStart = time.Now()
}

// endRegion closes the timed region and records the metrics every
// in-process workload shares: wall_s, alloc_mb, live_heap_mb (after a
// forced collection, with the workload's state still referenced by the
// caller) and the runtime counters.
func (e *env) endRegion() {
	wall := time.Since(e.regionStart)
	if e.rec != nil {
		e.regionHi = int64(time.Since(e.rec.epoch))
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e.calib[2] = calibWindow()
	e.put("bench.raw_wall_s", wall.Seconds())
	e.put("wall_s", wall.Seconds())
	e.put("alloc_mb", float64(after.TotalAlloc-e.memBefore.TotalAlloc)/(1<<20))
	e.put("runtime.mallocs", float64(after.Mallocs-e.memBefore.Mallocs))
	e.put("runtime.num_gc", float64(after.NumGC-e.memBefore.NumGC))
	e.put("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-e.memBefore.PauseTotalNs)/1e6)
	runtime.GC()
	runtime.ReadMemStats(&after)
	e.put("live_heap_mb", float64(after.HeapAlloc)/(1<<20))
	if e.rec != nil {
		e.put("bench.top_span_cover_share", topLevelCover(e.rec.snapshot(), e.regionLo, e.regionHi))
	}
}

// finish assembles the pass result: span-derived metrics, fallbacks for
// end-to-end metrics that do not apply, zeros for untouched layers, and
// the cross-pass digest check.
func (e *env) finish(passWall time.Duration) passResult {
	if e.rec != nil {
		spans := e.rec.snapshot()
		e.put("bench.trace_overhead_share",
			float64(len(spans))*spanCostNs()/math.Max(e.value("bench.raw_wall_s")*1e9, 1))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.put("runtime.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}

	// Scale the end-to-end timings to the reference box's quiet speed:
	// setup_s by the kernel readings that bracket set-up, everything else by
	// the two that bracket the region.
	setup := math.Sqrt(2 * refCalibNs / (e.calib[0] + e.calib[1]))
	region := math.Sqrt(2 * refCalibNs / (e.calib[1] + e.calib[2]))
	e.put("bench.speed_factor", region)
	e.put("bench.calib_us_p50", (e.calib[1]+e.calib[2])/2e3)
	for _, m := range endToEnd {
		d, ok := e.metrics[m.Name]
		switch {
		case !ok || unitPerNs[m.Unit] == 0 || e.clockBound[m.Name]:
			continue
		case m.Name == "setup_s":
			d.Value *= setup
		default:
			d.Value *= region
		}
		e.metrics[m.Name] = d
	}

	wall := e.value("wall_s")
	for _, m := range endToEnd {
		if _, ok := e.metrics[m.Name]; ok {
			continue
		}
		// The metric does not apply to this workload. The driver wants a
		// live, non-zero reading of every metric on every workload, so the
		// cell carries the workload's own wall time in the metric's unit:
		// it can only regress when wall_s regresses.
		// (Every workload measures the two memory metrics, so only
		// timings ever fall back.)
		e.metrics[m.Name] = metricDetail{Value: wall * 1e9 / unitPerNs[m.Unit], Unit: m.Unit, Fallback: true}
	}
	for _, m := range perLayer {
		if _, ok := e.metrics[m.Name]; !ok {
			e.metrics[m.Name] = metricDetail{Unit: m.Unit}
		}
	}
	for name, d := range e.metrics {
		if math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			e.fail("metric %s is not finite", name)
			d.Value = 0
			e.metrics[name] = d
		}
	}
	if e.ops == 0 {
		e.fail("no operation attempted")
	}
	if e.failed > 0 {
		e.fail("%d of %d operations failed", e.failed, e.ops)
	}

	res := passResult{
		Workload: e.cfg.Workload, Seed: e.cfg.Seed, Seconds: e.cfg.Seconds, Scale: e.cfg.Scale,
		Traced: e.cfg.Traced, Ops: e.ops, Failed: e.failed,
		Digest: hex.EncodeToString(e.digest.Sum(nil)), WallS: passWall.Seconds(),
		Metrics: e.metrics,
	}
	if err := checkDigest(e.cfg, res.Digest); err != nil {
		e.fail("%v", err)
	}
	res.Failures = e.failures
	res.Correct = len(e.failures) == 0
	return res
}

// cleanup removes the scratch directory and, in the traced pass, writes
// the spans out — the only moment they touch the disk.
func (e *env) cleanup() {
	os.RemoveAll(e.tmp)
	if e.rec != nil {
		path := filepath.Join(e.cfg.OutDir, "trace-"+e.cfg.Workload+".json")
		if err := e.rec.flush(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
		}
	}
}

// spanCostNs measures what recording one span costs, so the traced pass
// can state its own overhead without a second, untraced run.
func spanCostNs() float64 {
	const n = 20000
	r := newSpanRecorder()
	t := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("probe", -1, 0), 0)
	}
	return float64(time.Since(t)) / n
}

// checkDigest enforces "a speed-up must leave every simulated statistic
// identical" across processes: the first pass of a (binary, workload,
// seed, size) writes its digest under OutDir/digests; every later pass
// of the same key — the other trace mode, hence the other worker count —
// must reproduce it. The key includes a hash of the benchmark binary, so
// editing the program starts a fresh key instead of failing on a stale
// one.
func checkDigest(cfg passConfig, digest string) error {
	exe, err := os.Executable()
	if err != nil {
		return nil // no stable identity to key on; nothing to compare
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil
	}
	dir := filepath.Join(cfg.OutDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	key := fmt.Sprintf("%s-%s-seed%d-s%g-x%g", hex.EncodeToString(h.Sum(nil))[:16],
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Scale)
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != digest {
			return fmt.Errorf("digest %s differs from an earlier pass of the same inputs (%s): the run is not deterministic across trace modes or worker counts",
				digest[:16], string(prev)[:min(16, len(prev))])
		}
		return nil
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// timedPolicy is the traced pass's window into planning: it wraps a job's
// BO policy, records one span per Plan call (value: simulated seconds the
// plan consumed) and forwards everything else, so the controller and the
// fleet still see a policy named "bo" with a model library and a base.
type timedPolicy struct {
	inner *core.BOPolicy
	env   *env
	run   int
}

func (p *timedPolicy) Name() string                             { return p.inner.Name() }
func (p *timedPolicy) Library() *transfer.ModelLibrary          { return p.inner.Library() }
func (p *timedPolicy) Base() dataflow.ParallelismVector         { return p.inner.Base() }
func (p *timedPolicy) RestoreBase(b dataflow.ParallelismVector) { p.inner.RestoreBase(b) }

func (p *timedPolicy) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	before := e.Now()
	id := p.env.rec.begin("core.plan", int(p.env.parent.Load()), p.run)
	res, err := p.inner.Plan(e, req)
	p.env.rec.end(id, e.Now()-before)
	return res, err
}

// wrapPolicy builds the policy a traced job runs: the same BO planner
// the controller would assemble by default, behind a timedPolicy. nil in
// the untraced pass, which leaves the default in place.
func (e *env) wrapPolicy(cfg core.BOConfig, run int) (core.Policy, error) {
	if e.rec == nil {
		return nil, nil
	}
	inner, err := core.NewBOPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return &timedPolicy{inner: inner, env: e, run: run}, nil
}

// actionCounts tallies decision reports by action.
type actionCounts map[core.ActionKind]int

func (a actionCounts) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%d;", k, a[core.ActionKind(k)])
	}
	return out
}

// planStats accumulates what decision reports say about planning — the
// counts behind core.plans*, core.trials_per_plan, chaos.degraded_share
// and transfer.trials_saved.
type planStats struct {
	plans, alg1, alg2, degraded int
	trials                      int
}

func (s *planStats) add(reports []core.DecisionReport) {
	for _, r := range reports {
		s.plans++
		switch {
		case r.Degraded:
			s.degraded++
		case r.Action == core.ActionAlgorithm2:
			s.alg2++
		case r.Action == core.ActionAlgorithm1:
			s.alg1++
		}
		s.trials += r.Trials
	}
}

func (s *planStats) report(e *env) {
	e.put("core.plans", float64(s.plans))
	e.put("core.plans_alg1", float64(s.alg1))
	e.put("core.plans_alg2", float64(s.alg2))
	e.put("core.plans_degraded", float64(s.degraded))
	if s.plans > 0 {
		e.put("core.trials_per_plan", float64(s.trials)/float64(s.plans))
		e.put("chaos.degraded_share", float64(s.degraded)/float64(s.plans))
	}
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// cheapSetups is how often a set-up of milliseconds is repeated.
const cheapSetups = 15

// setup runs build the given number of times and records the median as
// setup_s; the last build's state is the one the workload measures. Cheap
// set-ups repeat so the median is steady; the 10k-job fleets and the
// daemon build once.
func (e *env) setup(repeats int, build func() error) error {
	var secs []float64
	for i := 0; i < repeats; i++ {
		t := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	e.metrics["setup_s"] = metricDetail{Value: median(secs), Unit: "s", N: len(secs)}
	return nil
}

// planSpans derives the planning cost from the decorator's spans: busy
// time, and the part of it the simulator's ticks do not explain (each
// plan span carries the simulated seconds it consumed; one tick is one
// simulated second and costs tickNs as this workload wires its engines).
func (e *env) planSpans(tickNs float64) {
	t := e.totals()["core.plan"]
	if t == nil {
		return
	}
	e.put("core.plan_busy_s", float64(t.BusyNs)/1e9)
	// An estimate: tickNs comes from a probe on a fresh engine, and where it
	// overstates the ticks inside plans the remainder bottoms out at zero.
	e.put("core.plan_nontick_s", math.Max(0, float64(t.BusyNs)-t.Value*tickNs)/1e9)
}

// totals aggregates the timed region's spans by name.
func (e *env) totals() map[string]*spanTotals {
	return totalsByName(e.rec.snapshot(), e.regionLo, e.regionHi)
}
