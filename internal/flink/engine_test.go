package flink

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/stat"
)

// testGraph builds a simple 3-operator chain: source (1000 rps/inst) ->
// map (500 rps/inst) -> sink (800 rps/inst), all selectivity 1.
func testGraph(t testing.TB) *dataflow.Graph {
	t.Helper()
	g := dataflow.NewGraph("test-job")
	ops := []dataflow.Operator{
		{Name: "source", Kind: dataflow.KindSource, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 1000, FixedLatencyMS: 5, QueueScaleMS: 10, CPUPerInstance: 1, MemPerInstanceMB: 256}},
		{Name: "map", Kind: dataflow.KindTransform, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 500, SyncCost: 0.05, FixedLatencyMS: 10, QueueScaleMS: 20, CommCostPerParallelism: 1, CPUPerInstance: 1, MemPerInstanceMB: 256}},
		{Name: "sink", Kind: dataflow.KindSink, Selectivity: 0,
			Profile: dataflow.Profile{BaseRatePerInstance: 800, FixedLatencyMS: 5, QueueScaleMS: 10, CPUPerInstance: 1, MemPerInstanceMB: 256}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect("source", "map"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("map", "sink"); err != nil {
		t.Fatal(err)
	}
	return g
}

func testCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Machines: []cluster.Machine{{Name: "m1", Cores: 16}, {Name: "m2", Cores: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newEngine(t testing.TB, rate float64, par dataflow.ParallelismVector) *Engine {
	t.Helper()
	topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Graph:              testGraph(t),
		Cluster:            testCluster(t),
		Topic:              topic,
		Seed:               1,
		NoNoise:            true,
		InitialParallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rates returns the per-operator detail of e's current window.
func rates(e *Engine) OperatorRates {
	var r OperatorRates
	e.OperatorRates(&r)
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for missing components")
	}
	topic, _ := kafka.NewTopic(kafka.ConstantRate(1))
	// Two sources are rejected.
	g := dataflow.NewGraph("two-src")
	p := dataflow.Profile{BaseRatePerInstance: 100, CPUPerInstance: 1}
	_ = g.AddOperator(dataflow.Operator{Name: "s1", Selectivity: 1, Profile: p})
	_ = g.AddOperator(dataflow.Operator{Name: "s2", Selectivity: 1, Profile: p})
	_ = g.AddOperator(dataflow.Operator{Name: "x", Selectivity: 0, Profile: p})
	_ = g.Connect("s1", "x")
	_ = g.Connect("s2", "x")
	if _, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic}); err == nil {
		t.Fatal("expected error for two sources")
	}
	// Bad initial parallelism is rejected.
	if _, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic,
		InitialParallelism: dataflow.ParallelismVector{0, 1, 1}}); err == nil {
		t.Fatal("expected error for parallelism 0")
	}
	// So is one that does not cover the graph: the compiled plan indexes
	// it per operator, so a short vector would otherwise build and then
	// panic on the first Tick.
	for _, par := range []dataflow.ParallelismVector{{2, 2}, {2, 2, 2, 2}, {}} {
		_, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic, InitialParallelism: par})
		want := fmt.Sprintf("parallelism has %d entries, graph has 3 operators", len(par))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("InitialParallelism %v: err = %v, want %q", par, err, want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	topic, _ := kafka.NewTopic(kafka.ConstantRate(100))
	e, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Parallelism().Equal(dataflow.Uniform(3, 1)) {
		t.Fatalf("default parallelism = %v", e.Parallelism())
	}
	if e.JobName() != "test-job" {
		t.Fatalf("JobName = %q", e.JobName())
	}
}

func TestThroughputMatchesBottleneck(t *testing.T) {
	// map at k=1 is the bottleneck: 500 rps.
	e := newEngine(t, 2000, dataflow.ParallelismVector{1, 1, 1})
	m := e.RunAndMeasure(10, 60)
	if math.Abs(m.ThroughputRPS-500) > 1 {
		t.Fatalf("throughput = %v, want ~500 (map bottleneck)", m.ThroughputRPS)
	}
	// Lag should be growing: input 2000, processed 500.
	if m.LagRecords <= 0 {
		t.Fatal("lag should accumulate when under-provisioned")
	}
	// Event latency must exceed processing latency when lag exists.
	if m.EventLatMS <= m.ProcLatencyMS {
		t.Fatalf("event latency %v should exceed processing latency %v", m.EventLatMS, m.ProcLatencyMS)
	}
}

func TestKeepsUpWhenProvisioned(t *testing.T) {
	// map needs ceil(2000/500·(1+σΔ)) ≈ 5 instances; give it 6.
	e := newEngine(t, 2000, dataflow.ParallelismVector{3, 6, 3})
	m := e.RunAndMeasure(10, 60)
	if math.Abs(m.ThroughputRPS-2000) > 1 {
		t.Fatalf("throughput = %v, want 2000", m.ThroughputRPS)
	}
	if m.LagRecords > 1 {
		t.Fatalf("lag = %v, want ~0", m.LagRecords)
	}
}

func TestNonLinearScaling(t *testing.T) {
	// Observation 2.1: doubling map's parallelism must yield less than 2x
	// its total capacity because of SyncCost.
	e1 := newEngine(t, 1e9, dataflow.ParallelismVector{8, 1, 8})
	m1 := e1.RunAndMeasure(5, 30)
	e2 := newEngine(t, 1e9, dataflow.ParallelismVector{8, 2, 8})
	m2 := e2.RunAndMeasure(5, 30)
	t1 := m1.ThroughputRPS
	t2 := m2.ThroughputRPS
	if t2 <= t1 {
		t.Fatalf("throughput should increase with parallelism: %v -> %v", t1, t2)
	}
	if t2 >= 2*t1 {
		t.Fatalf("scaling should be sublinear: %v -> %v", t1, t2)
	}
}

func TestLatencyUpturnAtHighParallelism(t *testing.T) {
	// Observation 2.2: CommCostPerParallelism on map eventually raises
	// latency as parallelism grows far beyond need.
	rate := 400.0
	lowPar := newEngine(t, rate, dataflow.ParallelismVector{1, 2, 1})
	mLow := lowPar.RunAndMeasure(10, 60)
	highPar := newEngine(t, rate, dataflow.ParallelismVector{1, 30, 1})
	mHigh := highPar.RunAndMeasure(10, 60)
	if mHigh.ProcLatencyMS <= mLow.ProcLatencyMS {
		t.Fatalf("very high parallelism should hurt latency: low=%v high=%v",
			mLow.ProcLatencyMS, mHigh.ProcLatencyMS)
	}
}

func TestTrueVsObservedRates(t *testing.T) {
	// Over-provisioned: observed rate per instance must be well below the
	// true (busy-time) rate; this is the core of the paper's metric
	// argument.
	e := newEngine(t, 500, dataflow.ParallelismVector{2, 4, 2})
	e.RunAndMeasure(10, 60)
	m := rates(e)
	mapIdx := 1
	if m.ObservedRatePerInstance[mapIdx] >= m.TrueRatePerInstance[mapIdx]*0.5 {
		t.Fatalf("observed %v should be well below true %v when idle",
			m.ObservedRatePerInstance[mapIdx], m.TrueRatePerInstance[mapIdx])
	}
	// Saturated: observed ≈ true.
	e2 := newEngine(t, 1e9, dataflow.ParallelismVector{2, 2, 2})
	e2.RunAndMeasure(10, 60)
	m2 := rates(e2)
	ratio := m2.ObservedRatePerInstance[mapIdx] / m2.TrueRatePerInstance[mapIdx]
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("saturated observed/true = %v, want ~1", ratio)
	}
}

func TestExternalCap(t *testing.T) {
	g := dataflow.NewGraph("capped")
	p := dataflow.Profile{BaseRatePerInstance: 1000, CPUPerInstance: 1}
	capped := dataflow.Profile{BaseRatePerInstance: 1000, ExternalCapRPS: 300, CPUPerInstance: 1}
	_ = g.AddOperator(dataflow.Operator{Name: "src", Selectivity: 1, Profile: p})
	_ = g.AddOperator(dataflow.Operator{Name: "join", Selectivity: 0, Profile: capped})
	_ = g.Connect("src", "join")
	topic, _ := kafka.NewTopic(kafka.ConstantRate(5000))
	e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true,
		InitialParallelism: dataflow.ParallelismVector{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	m := e.RunAndMeasure(10, 60)
	if m.ThroughputRPS > 305 {
		t.Fatalf("throughput = %v, should be capped at 300 regardless of parallelism", m.ThroughputRPS)
	}
}

func TestRestartDowntime(t *testing.T) {
	e := newEngine(t, 1000, dataflow.ParallelismVector{2, 3, 2})
	e.Run(30)
	lagBefore := e.Topic().Lag()
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 4, 2}); err != nil {
		t.Fatal(err)
	}
	if e.Restarts() != 1 {
		t.Fatalf("Restarts = %d", e.Restarts())
	}
	// During downtime nothing is consumed → lag grows by ~rate·downtime.
	e.Run(10)
	lagDuring := e.Topic().Lag()
	if lagDuring < lagBefore+9000 {
		t.Fatalf("lag during restart = %v, want >= %v", lagDuring, lagBefore+9000)
	}
	// Afterwards the larger config catches up.
	m := e.RunAndMeasure(30, 120)
	if m.LagRecords > lagDuring {
		t.Fatalf("lag should shrink after restart: %v -> %v", lagDuring, m.LagRecords)
	}
}

func TestSetParallelismNoChangeNoRestart(t *testing.T) {
	e := newEngine(t, 1000, dataflow.ParallelismVector{2, 3, 2})
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 3, 2}); err != nil {
		t.Fatal(err)
	}
	if e.Restarts() != 0 {
		t.Fatal("identical config should not restart")
	}
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 3}); err == nil {
		t.Fatal("wrong-length parallelism should error")
	}
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 3, 9999}); err == nil {
		t.Fatal("over-max parallelism should error")
	}
}

// ParallelismText is the active configuration's String text, formatted
// once per rescale: reads between rescales allocate nothing, and a
// rescale's new configuration is what the next read renders.
func TestParallelismTextFollowsRescales(t *testing.T) {
	e := newEngine(t, 1000, dataflow.ParallelismVector{2, 3, 2})
	if got := e.ParallelismText(); got != "(2, 3, 2)" {
		t.Fatalf("ParallelismText = %q, want (2, 3, 2)", got)
	}
	if n := testing.AllocsPerRun(10, func() { e.ParallelismText() }); n != 0 {
		t.Fatalf("a read between rescales made %v allocations, want 0", n)
	}
	if err := e.SetParallelism(dataflow.ParallelismVector{4, 3, 12}); err != nil {
		t.Fatal(err)
	}
	if got, want := e.ParallelismText(), e.Parallelism().String(); got != want || got != "(4, 3, 12)" {
		t.Fatalf("after a rescale ParallelismText = %q, want %q", got, want)
	}
}

func TestMeasureEmptyWindow(t *testing.T) {
	e := newEngine(t, 1000, nil)
	m := e.Measure()
	if m.WindowSec != 0 || m.ThroughputRPS != 0 {
		t.Fatalf("empty measure = %+v", m)
	}
}

func TestMetricsRecorded(t *testing.T) {
	topic, _ := kafka.NewTopic(kafka.ConstantRate(1000))
	store := metrics.NewStore()
	e, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic,
		Store: store, NoNoise: true, InitialParallelism: dataflow.ParallelismVector{2, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	job := map[string]string{"job": "test-job"}
	rate, ok := store.Latest(metrics.MetricTrueProcessingRate, map[string]string{"job": "test-job", "operator": "map"})
	if !ok || rate.TimeSec != e.Now() || rate.Value <= 0 {
		t.Fatalf("true rate not recorded at t=%g: %v, %v", e.Now(), rate, ok)
	}
	if _, ok := store.Latest(metrics.MetricThroughput, job); !ok {
		t.Fatal("throughput not recorded")
	}
	if _, ok := store.Latest(metrics.MetricKafkaLag, job); !ok {
		t.Fatal("lag not recorded")
	}
}

// Property: flow conservation at the source — every tick the backlog
// grows by at most what the schedule produced over the tick (nothing is
// consumed that was not produced before) and never goes negative
// (nothing is consumed twice).
func TestFlowConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		rate := 200 + r.Float64()*3000
		par := dataflow.ParallelismVector{1 + r.Intn(4), 1 + r.Intn(8), 1 + r.Intn(4)}
		topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
		if err != nil {
			return false
		}
		e, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic,
			Seed: seed, InitialParallelism: par})
		if err != nil {
			return false
		}
		prev := e.Topic().Lag()
		for i := 0; i < 120; i++ {
			before := e.Now()
			e.Tick()
			lag := e.Topic().Lag()
			if lag < -1e-9 || lag > prev+rate*(e.Now()-before)+1e-6 {
				return false
			}
			prev = lag
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	run := func() Measurement {
		topic, _ := kafka.NewTopic(kafka.ConstantRate(1500))
		e, err := New(Config{Graph: testGraph(t), Cluster: testCluster(t), Topic: topic,
			Seed: 99, InitialParallelism: dataflow.ParallelismVector{2, 4, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return e.RunAndMeasure(10, 60)
	}
	m1, m2 := run(), run()
	if m1.ThroughputRPS != m2.ThroughputRPS || m1.ProcLatencyMS != m2.ProcLatencyMS {
		t.Fatal("same seed must reproduce identical measurements")
	}
}

func TestInterferenceSlowsOversubscribed(t *testing.T) {
	// Interference is utilization-weighted: only *busy* instances contend
	// for cores. A saturated operator with 40 instances on a 32-core
	// cluster must run slower per instance than the same operator with 8
	// instances; an idle over-provisioned fleet must not.
	build := func(heavyK int) OperatorRates {
		g := dataflow.NewGraph("hot")
		_ = g.AddOperator(dataflow.Operator{Name: "src", Kind: dataflow.KindSource, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 10000, CPUPerInstance: 1}})
		_ = g.AddOperator(dataflow.Operator{Name: "heavy", Kind: dataflow.KindSink, Selectivity: 0,
			Profile: dataflow.Profile{BaseRatePerInstance: 100, CPUPerInstance: 2}})
		_ = g.Connect("src", "heavy")
		topic, err := kafka.NewTopic(kafka.ConstantRate(1e9))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true,
			InitialParallelism: dataflow.ParallelismVector{2, heavyK}})
		if err != nil {
			t.Fatal(err)
		}
		e.RunAndMeasure(10, 30)
		return rates(e)
	}
	small := build(8) // ~18 busy core-equivalents < 32 cores
	big := build(30)  // ~62 busy core-equivalents > 32 cores
	if big.TrueRatePerInstance[1] >= small.TrueRatePerInstance[1]*0.95 {
		t.Fatalf("busy oversubscription should reduce per-instance rate: %v vs %v",
			big.TrueRatePerInstance[1], small.TrueRatePerInstance[1])
	}
	// Idle over-provisioning (tiny input) must NOT trigger interference.
	gIdle := func(heavyK int) OperatorRates {
		g := dataflow.NewGraph("cold")
		_ = g.AddOperator(dataflow.Operator{Name: "src", Kind: dataflow.KindSource, Selectivity: 1,
			Profile: dataflow.Profile{BaseRatePerInstance: 10000, CPUPerInstance: 1}})
		_ = g.AddOperator(dataflow.Operator{Name: "heavy", Kind: dataflow.KindSink, Selectivity: 0,
			Profile: dataflow.Profile{BaseRatePerInstance: 100, CPUPerInstance: 2}})
		_ = g.Connect("src", "heavy")
		topic, _ := kafka.NewTopic(kafka.ConstantRate(50))
		e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true,
			InitialParallelism: dataflow.ParallelismVector{2, heavyK}})
		if err != nil {
			t.Fatal(err)
		}
		e.RunAndMeasure(10, 30)
		return rates(e)
	}
	idle := gIdle(30)
	if idle.TrueRatePerInstance[1] < 99 {
		t.Fatalf("idle instances must not interfere: per-instance rate %v", idle.TrueRatePerInstance[1])
	}
}

// A sampled window keeps one sample per measured tick and lets go of
// them when it ends; every other window keeps none.
func TestLatencySamplesPresent(t *testing.T) {
	e := newEngine(t, 1000, dataflow.ParallelismVector{2, 3, 2})
	m := e.MeasureSteadySampled(5, 30)
	if len(m.LatencySamples) != 30 {
		t.Fatalf("samples = %d, want 30", len(m.LatencySamples))
	}
	for _, s := range m.LatencySamples {
		if s <= 0 {
			t.Fatalf("non-positive latency sample %v", s)
		}
	}
	if e.win.latencySamples != nil {
		t.Fatalf("engine retains %d samples after the sampled window", cap(e.win.latencySamples))
	}
	if m := e.MeasureSteady(5, 30); m.LatencySamples != nil {
		t.Fatalf("MeasureSteady kept %d samples, want none", len(m.LatencySamples))
	}
	if m := e.RunAndMeasure(5, 30); m.LatencySamples != nil {
		t.Fatalf("RunAndMeasure kept %d samples, want none", len(m.LatencySamples))
	}
}

func TestMemAccounting(t *testing.T) {
	e := newEngine(t, 1000, dataflow.ParallelismVector{2, 3, 2})
	if got := e.Measure().MemUsedMB; got != 7*256 {
		t.Fatalf("Measure().MemUsedMB = %v, want %v", got, 7*256)
	}
	m := e.RunAndMeasure(5, 20)
	if m.CPUUsedCores <= 0 || m.CPUUsedCores > 7 {
		t.Fatalf("CPUUsedCores = %v out of (0, 7]", m.CPUUsedCores)
	}
}

func TestSelectivityPropagation(t *testing.T) {
	// FlatMap with selectivity 2 doubles the arrival rate downstream.
	g := dataflow.NewGraph("sel")
	p := dataflow.Profile{BaseRatePerInstance: 10000, CPUPerInstance: 1}
	_ = g.AddOperator(dataflow.Operator{Name: "src", Selectivity: 2, Profile: p})
	_ = g.AddOperator(dataflow.Operator{Name: "sink", Selectivity: 0, Profile: p})
	_ = g.Connect("src", "sink")
	topic, _ := kafka.NewTopic(kafka.ConstantRate(1000))
	e, err := New(Config{Graph: g, Cluster: testCluster(t), Topic: topic, NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	m := e.RunAndMeasure(5, 30)
	if r := rates(e); math.Abs(r.LambdaRPS[1]-2*m.ThroughputRPS) > 1 {
		t.Fatalf("sink lambda = %v, want 2x throughput %v", r.LambdaRPS[1], m.ThroughputRPS)
	}
}

func TestMachineFailover(t *testing.T) {
	e := newEngine(t, 1800, dataflow.ParallelismVector{3, 6, 3})
	healthy := e.MeasureSteady(15, 60)
	if healthy.ThroughputRPS < 1790 {
		t.Fatalf("healthy throughput = %v", healthy.ThroughputRPS)
	}
	if err := e.FailMachine("m1"); err != nil {
		t.Fatal(err)
	}
	if e.Restarts() != 1 {
		t.Fatal("failover should restart the job")
	}
	// With half the cores gone and 12 busy-ish instances on 16 cores the
	// job still roughly keeps up; push parallelism to force contention.
	if err := e.SetParallelism(dataflow.ParallelismVector{8, 16, 8}); err != nil {
		t.Fatal(err)
	}
	e.MeasureSteady(15, 60)
	degraded := rates(e)
	recoveredErr := e.RecoverMachine("m1")
	if recoveredErr != nil {
		t.Fatal(recoveredErr)
	}
	e.MeasureSteady(15, 60)
	recovered := rates(e)
	// Per-instance true rates under failure must be below the recovered
	// ones (oversubscription on the surviving machine).
	if degraded.TrueRatePerInstance[1] >= recovered.TrueRatePerInstance[1] {
		t.Fatalf("failure should depress per-instance rates: %v vs %v",
			degraded.TrueRatePerInstance[1], recovered.TrueRatePerInstance[1])
	}
	if err := e.FailMachine("ghost"); err == nil {
		t.Fatal("unknown machine should error")
	}
}
