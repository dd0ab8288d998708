package flink_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/stat"
	"autrascale/internal/workloads"
)

// diffCase is one job the compiled tick and the reference are driven
// over, side by side. Each side builds its own graph, cluster and topic.
type diffCase struct {
	name     string
	graph    func() *dataflow.Graph
	cluster  func() *cluster.Cluster
	schedule kafka.RateSchedule
	maxPar   int
}

// paperCases are the four workloads of the paper's evaluation on its
// testbed, under a schedule that starts at the §V-B rate, overloads the
// job, idles it, and returns.
func paperCases() []diffCase {
	var cases []diffCase
	for _, spec := range workloads.All() {
		r := spec.DefaultRateRPS
		cases = append(cases, diffCase{
			name:    spec.Name,
			graph:   spec.BuildGraph,
			cluster: cluster.PaperTestbed,
			schedule: kafka.StepSchedule{Steps: []kafka.Step{
				{FromSec: 0, Rate: r}, {FromSec: 120, Rate: 4 * r}, {FromSec: 200, Rate: 0}, {FromSec: 260, Rate: r / 3},
			}},
			maxPar: 24,
		})
	}
	return cases
}

// generatedCase builds a random DAG of n >= 4 operators from seed. Every
// generated graph has an externally capped operator with sharded state
// and an explicit MaxCongestion (op 1), a zero-selectivity operator
// whose only successor therefore sees no arrivals (ops 2 → 3), and
// operators on the default MaxCongestion; the rest — fan-in, rates,
// costs, selectivities — is random. The cluster is small enough that
// random configurations oversubscribe it, so the interference term is
// live.
func generatedCase(seed uint64) diffCase {
	rng := stat.NewRNG(seed)
	n := 4 + rng.Intn(4)
	ops := make([]dataflow.Operator, n)
	var edges [][2]int
	for i := range ops {
		p := dataflow.Profile{
			BaseRatePerInstance:    200 + 4000*rng.Float64(),
			SyncCost:               0.1 * rng.Float64(),
			CrossCost:              0.01 * rng.Float64(),
			CommCostPerParallelism: 2 * rng.Float64(),
			FixedLatencyMS:         10 * rng.Float64(),
			CPUPerInstance:         0.5 + 1.5*rng.Float64(),
			MemPerInstanceMB:       128 + 512*rng.Float64(),
		}
		if rng.Float64() < 0.7 {
			p.QueueScaleMS = 30 * rng.Float64()
		}
		if rng.Float64() < 0.3 {
			p.StateCostMS = 5 + 40*rng.Float64()
		}
		if rng.Float64() < 0.3 {
			p.MaxCongestion = 2 + 40*rng.Float64()
		}
		ops[i] = dataflow.Operator{
			Name:        fmt.Sprintf("op%d", i),
			Kind:        dataflow.KindTransform,
			Selectivity: 2 * rng.Float64(),
			Profile:     p,
		}
		if i > 0 && i != 3 {
			from := rng.Intn(i)
			edges = append(edges, [2]int{from, i})
			if other := rng.Intn(i); other != from && rng.Float64() < 0.4 {
				edges = append(edges, [2]int{other, i})
			}
		}
	}
	ops[0].Kind = dataflow.KindSource
	ops[1].Profile.ExternalCapRPS = 3 * ops[1].Profile.BaseRatePerInstance
	ops[1].Profile.StateCostMS = 25
	ops[1].Profile.QueueScaleMS = 12
	ops[1].Profile.MaxCongestion = 8
	ops[2].Selectivity = 0
	ops[3].Profile.QueueScaleMS = 9
	ops[3].Profile.MaxCongestion = 0
	edges = append(edges, [2]int{2, 3})

	base := ops[0].Profile.BaseRatePerInstance
	return diffCase{
		name: fmt.Sprintf("dag-%d", seed),
		graph: func() *dataflow.Graph {
			g := dataflow.NewGraph(fmt.Sprintf("dag-%d", seed))
			for _, op := range ops {
				if err := g.AddOperator(op); err != nil {
					panic(err)
				}
			}
			for _, e := range edges {
				if err := g.Connect(ops[e[0]].Name, ops[e[1]].Name); err != nil {
					panic(err)
				}
			}
			return g
		},
		cluster: func() *cluster.Cluster {
			c, err := cluster.New(cluster.Config{
				Machines: []cluster.Machine{
					{Name: "m1", Cores: 8},
					{Name: "m2", Cores: 6},
					{Name: "m3", Cores: 10},
				},
				InterferenceGamma: 0.8,
				BackgroundLoad:    0.1,
			})
			if err != nil {
				panic(err)
			}
			return c
		},
		schedule: kafka.StepSchedule{Steps: []kafka.Step{
			{FromSec: 0, Rate: base}, {FromSec: 100, Rate: 6 * base}, {FromSec: 180, Rate: 0}, {FromSec: 230, Rate: base / 2},
		}},
		maxPar: 12,
	}
}

// diffProfile injects every fault class the tick path sees: dropped and
// corrupted measurement ticks, partition stalls, scheduled machine
// kills and recoveries (named and victim-selected), and failing or slow
// rescales around them.
func diffProfile() chaos.Profile {
	return chaos.Profile{
		Name:              "differential",
		RescaleFailProb:   0.3,
		RescaleDelayProb:  0.3,
		RescaleDelaySec:   7,
		WindowDropProb:    0.1,
		WindowCorruptProb: 0.1,
		WindowCorruptMax:  0.5,
		MachineEvents: []chaos.MachineEvent{
			{AtSec: 70, Down: true},
			{AtSec: 150, Down: false},
			{AtSec: 210, Down: true},
			{AtSec: 215, Down: true},
			{AtSec: 300, Down: false},
		},
		Stalls: []chaos.StallWindow{{FromSec: 40, ToSec: 90, Fraction: 0.5}, {FromSec: 240, ToSec: 250, Fraction: 0.9}},
	}
}

func (c diffCase) config(t *testing.T, seed uint64, noise, faults bool, tickSec float64, store *metrics.Store) flink.Config {
	t.Helper()
	topic, err := kafka.NewTopic("in", 8, c.schedule)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flink.Config{
		Graph:              c.graph(),
		Cluster:            c.cluster(),
		Topic:              topic,
		Store:              store,
		Seed:               seed,
		NoNoise:            !noise,
		TickSec:            tickSec,
		RestartDowntimeSec: 4,
		RescaleBackoffSec:  2,
	}
	if faults {
		cfg.Chaos = chaos.New(diffProfile(), seed)
	}
	return cfg
}

// bits compares two floats bit for bit.
func bits(t *testing.T, at, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)",
			at, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func bitsSlice(t *testing.T, at, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len(%s) = %d, reference %d", at, what, len(got), len(want))
	}
	for i := range got {
		bits(t, at, fmt.Sprintf("%s[%d]", what, i), got[i], want[i])
	}
}

func sameMeasurement(t *testing.T, at string, got, want flink.Measurement) {
	t.Helper()
	if !got.Par.Equal(want.Par) {
		t.Fatalf("%s: Par = %v, reference %v", at, got.Par, want.Par)
	}
	bits(t, at, "WindowSec", got.WindowSec, want.WindowSec)
	bits(t, at, "InputRateRPS", got.InputRateRPS, want.InputRateRPS)
	bits(t, at, "ThroughputRPS", got.ThroughputRPS, want.ThroughputRPS)
	bits(t, at, "ProcLatencyMS", got.ProcLatencyMS, want.ProcLatencyMS)
	bits(t, at, "EventLatMS", got.EventLatMS, want.EventLatMS)
	bits(t, at, "LagRecords", got.LagRecords, want.LagRecords)
	bits(t, at, "CPUUsedCores", got.CPUUsedCores, want.CPUUsedCores)
	bits(t, at, "MemUsedMB", got.MemUsedMB, want.MemUsedMB)
	bitsSlice(t, at, "TrueRatePerInstance", got.TrueRatePerInstance, want.TrueRatePerInstance)
	bitsSlice(t, at, "ObservedRatePerInstance", got.ObservedRatePerInstance, want.ObservedRatePerInstance)
	bitsSlice(t, at, "LambdaRPS", got.LambdaRPS, want.LambdaRPS)
	bitsSlice(t, at, "LatencySamples", got.LatencySamples, want.LatencySamples)
}

// TestCompiledTickMatchesReference drives the engine and the reference
// through the same random sequence of ticks, rescales, machine failures
// and window resets, and requires identical state after every tick —
// math.Float64bits, not a tolerance — and identical store contents at
// the end.
func TestCompiledTickMatchesReference(t *testing.T) {
	cases := paperCases()
	for seed := uint64(1); seed <= 12; seed++ {
		cases = append(cases, generatedCase(seed))
	}
	for ci, c := range cases {
		for _, noise := range []bool{true, false} {
			for _, faults := range []bool{false, true} {
				c, seed := c, uint64(100+ci)
				tickSec := 1.0
				if ci%3 == 1 {
					tickSec = 0.5
				}
				t.Run(fmt.Sprintf("%s/noise=%t/chaos=%t", c.name, noise, faults), func(t *testing.T) {
					runDifferential(t, c, seed, noise, faults, tickSec)
				})
			}
		}
	}
}

func runDifferential(t *testing.T, c diffCase, seed uint64, noise, faults bool, tickSec float64) {
	engStore, refStore := metrics.NewStore(), metrics.NewStore()
	eng, err := flink.New(c.config(t, seed, noise, faults, tickSec, engStore))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flink.NewReference(c.config(t, seed, noise, faults, tickSec, refStore))
	if err != nil {
		t.Fatal(err)
	}
	n := eng.Graph().NumOperators()
	machines := eng.Cluster().UpMachineNames()
	sawIdleOperator := false

	// Both sides must agree on whether an action succeeded.
	agree := func(at string, engErr, refErr error) {
		t.Helper()
		if (engErr == nil) != (refErr == nil) {
			t.Fatalf("%s: engine error %v, reference error %v", at, engErr, refErr)
		}
	}
	drive := stat.NewRNG(seed * 7919)
	const ticks = 360
	for tick := 0; tick < ticks; tick++ {
		at := fmt.Sprintf("tick %d", tick)
		switch a := drive.Intn(40); {
		case a < 3:
			p := make(dataflow.ParallelismVector, n)
			for i := range p {
				p[i] = 1 + drive.Intn(c.maxPar)
			}
			agree(at+" rescale", eng.SetParallelism(p), ref.SetParallelism(p))
		case a == 3:
			name := machines[drive.Intn(len(machines))]
			agree(at+" fail "+name, eng.FailMachine(name), ref.FailMachine(name))
		case a == 4:
			name := machines[drive.Intn(len(machines))]
			agree(at+" recover "+name, eng.RecoverMachine(name), ref.RecoverMachine(name))
		case a == 5:
			eng.ResetWindow()
			ref.ResetWindow()
		}
		eng.Tick()
		ref.Tick()

		bits(t, at, "Now", eng.Now(), ref.Now())
		if eng.RNGState() != ref.RNGState() {
			t.Fatalf("%s: RNGState = %#x, reference %#x", at, eng.RNGState(), ref.RNGState())
		}
		bits(t, at, "Lag", eng.Topic().Lag(), ref.Lag())
		if eng.Restarts() != ref.Restarts() {
			t.Fatalf("%s: Restarts = %d, reference %d", at, eng.Restarts(), ref.Restarts())
		}
		m := eng.Measure()
		sameMeasurement(t, at, m, ref.Measure())
		if m.ThroughputRPS > 0 {
			for _, l := range m.LambdaRPS {
				sawIdleOperator = sawIdleOperator || l == 0
			}
		}
	}
	if strings.HasPrefix(c.name, "dag-") && !sawIdleOperator {
		t.Error("generated DAG never ran with a zero-arrival operator beside live ones")
	}

	// What the ticks recorded: the engine's job-level and per-operator
	// series and nothing else, point for point.
	var series []metrics.SeriesKey
	jobTags := "job=" + eng.JobName()
	for _, name := range []string{metrics.MetricThroughput, metrics.MetricLatencyMS, metrics.MetricEventTimeLatencyMS, metrics.MetricKafkaLag} {
		series = append(series, metrics.SeriesKey{Name: name, Tags: jobTags})
	}
	for i := 0; i < n; i++ {
		tags := jobTags + ",operator=" + eng.Graph().Operator(i).Name
		for _, name := range []string{metrics.MetricTrueProcessingRate, metrics.MetricObservedRate, metrics.MetricInputRate} {
			series = append(series, metrics.SeriesKey{Name: name, Tags: tags})
		}
	}
	if engStore.Len() != len(series) || refStore.Len() != len(series) {
		t.Fatalf("engine store has %d series, reference %d, want the engine's %d", engStore.Len(), refStore.Len(), len(series))
	}
	for _, key := range series {
		got := engStore.WindowByKey(key, 0, math.Inf(1))
		want := refStore.WindowByKey(key, 0, math.Inf(1))
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("series %v: %d points, reference %d", key, len(got), len(want))
		}
		for i := range got {
			at := fmt.Sprintf("series %v point %d", key, i)
			bits(t, at, "TimeSec", got[i].TimeSec, want[i].TimeSec)
			bits(t, at, "Value", got[i].Value, want[i].Value)
		}
	}
}

// tickAllocs reports allocations per Tick, resetting the measurement
// window once per policy window as Controller.Step does.
func tickAllocs(e *flink.Engine) float64 {
	i := 0
	return testing.AllocsPerRun(600, func() {
		if i++; i%60 == 0 {
			e.ResetWindow()
		}
		e.Tick()
	})
}

func TestTickAllocatesNothing(t *testing.T) {
	par := dataflow.ParallelismVector{3, 4, 12, 10}
	newEngine := func(t *testing.T, opts workloads.EngineOptions) *flink.Engine {
		t.Helper()
		opts.Seed = 3
		opts.InitialParallelism = par
		e, err := workloads.NewEngine(workloads.WordCount(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	t.Run("live", func(t *testing.T) {
		e := newEngine(t, workloads.EngineOptions{})
		e.Run(20)
		if got := tickAllocs(e); got != 0 {
			t.Fatalf("live tick: %v allocs, want 0", got)
		}
	})
	t.Run("downtime", func(t *testing.T) {
		e, err := flink.New(flink.Config{
			Graph:              workloads.WordCount().BuildGraph(),
			Cluster:            cluster.PaperTestbed(),
			Topic:              mustTopic(t, 1000),
			Seed:               3,
			RestartDowntimeSec: 1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetParallelism(par); err != nil {
			t.Fatal(err)
		}
		if got := tickAllocs(e); got != 0 {
			t.Fatalf("downtime tick: %v allocs, want 0", got)
		}
		if m := e.Measure(); m.WindowSec != 0 {
			t.Fatalf("job should have been down throughout, measured %v s", m.WindowSec)
		}
	})
	t.Run("store at the retention cap", func(t *testing.T) {
		e := newEngine(t, workloads.EngineOptions{Store: metrics.NewStore()})
		e.Run(2048) // twice the store's 1024-sample series retention
		if got := tickAllocs(e); got != 0 {
			t.Fatalf("store-attached tick: %v allocs, want 0", got)
		}
	})
	t.Run("chaos", func(t *testing.T) {
		// Drops, corruption and a stall window in force; the scheduled
		// machine events (which restart the job and trace) are not per-tick
		// work and fire before the measured ticks.
		profile := diffProfile()
		profile.MachineEvents = []chaos.MachineEvent{{AtSec: 5, Down: true}}
		profile.Stalls = []chaos.StallWindow{{FromSec: 0, ToSec: 1e9, Fraction: 0.5}}
		e := newEngine(t, workloads.EngineOptions{Chaos: chaos.New(profile, 3)})
		e.Run(40)
		if got := tickAllocs(e); got != 0 {
			t.Fatalf("chaos tick: %v allocs, want 0", got)
		}
	})
}

func mustTopic(t *testing.T, rate float64) *kafka.Topic {
	t.Helper()
	topic, err := kafka.NewTopic("in", 8, kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	return topic
}

// A policy window with no replan costs a constant number of allocations
// — the Measurement's own slices — however many ticks it spans.
func TestMeasurementWindowAllocsBounded(t *testing.T) {
	e, err := workloads.NewEngine(workloads.WordCount(), workloads.EngineOptions{
		Seed:               3,
		InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	// Par, three per-operator slices, the latency samples.
	const measurementSlices = 5
	if got := testing.AllocsPerRun(50, func() { e.RunAndMeasure(0, 60) }); got > measurementSlices {
		t.Fatalf("RunAndMeasure(0, 60): %v allocs, want <= %d", got, measurementSlices)
	}
	// A window past the retained sample capacity grows on the heap —
	// logarithmically, not per tick — and the next short window is back
	// to the constant.
	if got := testing.AllocsPerRun(10, func() { e.RunAndMeasure(0, 1000) }); got > measurementSlices+5 {
		t.Fatalf("RunAndMeasure(0, 1000): %v allocs, want <= %d", got, measurementSlices+5)
	}
	if got := testing.AllocsPerRun(50, func() { e.RunAndMeasure(0, 60) }); got > measurementSlices {
		t.Fatalf("RunAndMeasure(0, 60) after a long window: %v allocs, want <= %d", got, measurementSlices)
	}
}

// A Measurement never aliases engine-mutable memory: ticks, a window
// reset and a rescale after Measure returned leave it untouched.
func TestMeasurementDoesNotAliasEngine(t *testing.T) {
	e, err := workloads.NewEngine(workloads.WordCount(), workloads.EngineOptions{
		Seed:               3,
		InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.RunAndMeasure(20, 30)
	snapshot := m
	snapshot.Par = m.Par.Clone()
	snapshot.TrueRatePerInstance = append([]float64(nil), m.TrueRatePerInstance...)
	snapshot.ObservedRatePerInstance = append([]float64(nil), m.ObservedRatePerInstance...)
	snapshot.LambdaRPS = append([]float64(nil), m.LambdaRPS...)
	snapshot.LatencySamples = append([]float64(nil), m.LatencySamples...)

	e.Run(10)
	sameMeasurement(t, "after ticks", m, snapshot)
	e.ResetWindow()
	e.Run(45)
	sameMeasurement(t, "after ResetWindow and a new window", m, snapshot)
	if err := e.SetParallelism(dataflow.ParallelismVector{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	sameMeasurement(t, "after a rescale", m, snapshot)

	// Nor do two measurements of one window share storage.
	a, b := e.Measure(), e.Measure()
	a.Par[0], a.LatencySamples[0], a.LambdaRPS[0] = 99, -1, -1
	if b.Par[0] == 99 || b.LatencySamples[0] == -1 || b.LambdaRPS[0] == -1 {
		t.Fatal("two Measure() results share storage")
	}
}
