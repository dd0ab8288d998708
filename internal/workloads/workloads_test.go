package workloads

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
)

func TestAllSpecsBuildAndValidate(t *testing.T) {
	specs := append(All(), WordCountCaseStudy())
	names := map[string]bool{}
	for _, spec := range specs {
		if spec.Name == "" || spec.DefaultRateRPS <= 0 || spec.TargetLatencyMS <= 0 {
			t.Fatalf("incomplete spec %+v", spec)
		}
		if names[spec.Name] {
			t.Fatalf("duplicate workload name %q", spec.Name)
		}
		names[spec.Name] = true
		g := spec.Graph
		if g == nil {
			t.Fatalf("%s: no graph", spec.Name)
		}
		// Built and validated once: the graph is frozen, and every lookup
		// of the workload hands out the same one.
		if err := g.AddOperator(dataflow.Operator{Name: "extra", Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 1}}); err == nil {
			t.Fatalf("%s: the graph took an operator after Validate", spec.Name)
		}
		if byName, ok := ByName(spec.Name); !ok || byName.Graph != g {
			t.Fatalf("%s: ByName returns another graph", spec.Name)
		}
	}
	if WordCount().Graph != WordCount().Graph {
		t.Fatal("WordCount builds a graph per call")
	}
	if len(All()) != 4 {
		t.Fatalf("All() = %d workloads, want 4", len(All()))
	}
}

func TestRegistryOrderAndLookup(t *testing.T) {
	want := "wordcount yahoo nexmark-q5 nexmark-q11 wordcount-case"
	if got := strings.Join(Names(), " "); got != want {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	for i, spec := range All() {
		if spec.Name != Names()[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, spec.Name, Names()[i])
		}
	}
	if _, ok := ByName("wordcount-case"); !ok {
		t.Fatal("the case-study variant does not resolve")
	}
	if spec, ok := ByName("no-such-workload"); ok || spec.Graph != nil {
		t.Fatalf("an unknown name resolved to %+v", spec)
	}
	// All hands out a copy of the table.
	All()[0].Name = "changed"
	if WordCount().Name != "wordcount" || All()[0].Name != "wordcount" {
		t.Fatal("a caller's copy of All() changed the registry")
	}
}

// Engines built at once on several goroutines share one graph, and each
// runs exactly as the same engine built alone: the graph is read-only
// after Validate (the race detector checks the first half under make
// race).
func TestConcurrentEnginesShareOneGraph(t *testing.T) {
	const workers, seconds = 4, 120
	spec := WordCount()
	// run returns the engine and its window printed: the summary, then
	// the per-operator detail.
	run := func(seed uint64) (*flink.Engine, string, error) {
		e, err := NewEngine(spec, EngineOptions{Seed: seed, InitialParallelism: dataflow.ParallelismVector{2, 3, 9, 7}})
		if err != nil {
			return nil, "", err
		}
		m := e.RunAndMeasure(10, seconds)
		var rates flink.OperatorRates
		e.OperatorRates(&rates)
		return e, fmt.Sprint(m, rates), nil
	}
	type result struct {
		e   *flink.Engine
		m   string
		err error
	}
	got := make([]result, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, m, err := run(uint64(i + 1))
			got[i] = result{e, m, err}
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.e.Graph() != spec.Graph {
			t.Fatalf("engine %d holds its own graph", i)
		}
		_, want, err := run(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if r.m != want {
			t.Fatalf("engine %d: concurrent run %s, alone %s", i, r.m, want)
		}
	}
}

func TestNewEngineDefaults(t *testing.T) {
	e, err := NewEngine(WordCount(), EngineOptions{NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster().TotalCores() != 60 {
		t.Fatalf("default cluster cores = %d, want the 60-core paper testbed", e.Cluster().TotalCores())
	}
	if !e.Parallelism().Equal(dataflow.Uniform(4, 1)) {
		t.Fatalf("default initial parallelism = %v", e.Parallelism())
	}
	// Schedule override is honored.
	e2, err := NewEngine(WordCount(), EngineOptions{Schedule: kafka.ConstantRate(123), NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Topic().InputRateAt(0); got != 123 {
		t.Fatalf("schedule override ignored: %v", got)
	}
	// Metrics store is wired through.
	store := metrics.NewStore()
	e3, err := NewEngine(WordCount(), EngineOptions{Store: store, NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	e3.Run(5)
	if store.Len() == 0 {
		t.Fatal("metrics not recorded")
	}
}

// The headline calibration points from the paper (§V-B, Fig. 5a):
// throughput optimization lands on the published parallelism vectors in
// at most 4 iterations.
func TestThroughputOptimizationMatchesPaperOperatingPoints(t *testing.T) {
	cases := []struct {
		spec       Spec
		wantBase   dataflow.ParallelismVector
		wantReach  bool
		wantRepeat bool
	}{
		{WordCount(), dataflow.ParallelismVector{3, 4, 12, 10}, true, false},
		{Yahoo(), dataflow.ParallelismVector{4, 2, 1, 1, 34}, false, true},
		{NexmarkQ5(), dataflow.ParallelismVector{1, 18, 2}, true, false},
		{NexmarkQ11(), dataflow.ParallelismVector{1, 12, 2}, true, false},
	}
	for _, c := range cases {
		e, err := NewEngine(c.spec, EngineOptions{NoNoise: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.OptimizeThroughput(e, core.ThroughputOptions{TargetRate: c.spec.DefaultRateRPS})
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if !res.Base.Equal(c.wantBase) {
			t.Fatalf("%s: base = %v, want %v", c.spec.Name, res.Base, c.wantBase)
		}
		if res.ReachedTarget != c.wantReach {
			t.Fatalf("%s: ReachedTarget = %v, want %v", c.spec.Name, res.ReachedTarget, c.wantReach)
		}
		if res.TerminatedByRepeat != c.wantRepeat {
			t.Fatalf("%s: TerminatedByRepeat = %v, want %v", c.spec.Name, res.TerminatedByRepeat, c.wantRepeat)
		}
		if res.Iterations() > 4 {
			t.Fatalf("%s: %d iterations, paper reports at most 4", c.spec.Name, res.Iterations())
		}
	}
}

// Yahoo's Redis cap (Fig. 5b): throughput stuck near 34k regardless of
// parallelism.
func TestYahooRedisCap(t *testing.T) {
	spec := Yahoo()
	for _, k5 := range []int{34, 50, 60} {
		par := dataflow.ParallelismVector{5, 3, 1, 1, k5}
		e, err := NewEngine(spec, EngineOptions{NoNoise: true, Seed: 3, InitialParallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		m := e.MeasureSteady(30, 60)
		if m.ThroughputRPS > 34e3*1.01 {
			t.Fatalf("k5=%d: throughput %v exceeds the Redis cap", k5, m.ThroughputRPS)
		}
		if m.ThroughputRPS < 33e3 {
			t.Fatalf("k5=%d: throughput %v below the cap it should saturate", k5, m.ThroughputRPS)
		}
	}
}

// The case-study curve (Fig. 2a): strongly sublinear throughput growth
// that saturates well below linear scaling, and a U-shaped latency
// (Fig. 2b / Observations 2.1, 2.2).
func TestCaseStudyFigure2Shape(t *testing.T) {
	spec := WordCountCaseStudy()
	thr := make([]float64, 7)
	lat := make([]float64, 7)
	for k := 1; k <= 6; k++ {
		e, err := NewEngine(spec, EngineOptions{NoNoise: true, Seed: 1,
			InitialParallelism: dataflow.Uniform(4, k)})
		if err != nil {
			t.Fatal(err)
		}
		m := e.RunAndMeasure(30, 120)
		thr[k] = m.ThroughputRPS
		lat[k] = m.ProcLatencyMS
	}
	if math.Abs(thr[1]-150e3) > 5e3 {
		t.Fatalf("k=1 throughput = %v, want ~150k", thr[1])
	}
	if thr[2] < 230e3 || thr[2] > 260e3 {
		t.Fatalf("k=2 throughput = %v, want ~250k", thr[2])
	}
	if thr[2] >= 2*thr[1] {
		t.Fatal("scaling must be sublinear (Obs. 2.1)")
	}
	if thr[3] < thr[2] {
		t.Fatalf("k=3 should still improve: %v -> %v", thr[2], thr[3])
	}
	// Saturation: k=6 is no better than the peak.
	peak := math.Max(thr[3], math.Max(thr[4], thr[5]))
	if thr[6] > peak {
		t.Fatalf("k=6 throughput %v should not exceed the plateau %v", thr[6], peak)
	}
	// Latency: decreasing at first, higher again at k=6 than at the
	// minimum (Obs. 2.2).
	if !(lat[1] > lat[2] && lat[2] > lat[3]) {
		t.Fatalf("latency should fall with early parallelism: %v", lat[1:])
	}
	minLat := math.Min(lat[3], lat[4])
	if lat[6] <= minLat {
		t.Fatalf("latency should rise again at k=6: %v vs min %v", lat[6], minLat)
	}
}

// True vs observed rates on a real workload: over-provisioned WordCount
// shows the observed metric far below the true metric (the paper's core
// argument for the new metric).
func TestObservedUnderestimatesWhenOverProvisioned(t *testing.T) {
	e, err := NewEngine(WordCount(), EngineOptions{NoNoise: true, Seed: 4,
		InitialParallelism: dataflow.ParallelismVector{10, 12, 40, 30}})
	if err != nil {
		t.Fatal(err)
	}
	e.MeasureSteady(30, 60)
	var m flink.OperatorRates
	e.OperatorRates(&m)
	count := 2 // Count operator index
	if m.ObservedRatePerInstance[count] > 0.5*m.TrueRatePerInstance[count] {
		t.Fatalf("observed %v should be well under true %v",
			m.ObservedRatePerInstance[count], m.TrueRatePerInstance[count])
	}
}
