// Package workloads defines the four benchmark jobs of the paper's
// evaluation (§V-A) with performance profiles calibrated so the headline
// operating points land near the paper's:
//
//   - WordCount: linear 4-operator DAG (Source, FlatMap, Count, Sink);
//     throughput-optimal parallelism ≈ (3, 4, 12, 10) at 350k records/s.
//   - WordCountCaseStudy: the §II motivation variant whose uniform-
//     parallelism sweep reproduces Fig. 1 and Fig. 2.
//   - Yahoo Streaming Benchmark: 5-operator DAG whose final operator is
//     capped by Redis read/write throughput — total rate stuck near 34k
//     records/s no matter the parallelism (Fig. 5b).
//   - Nexmark Query5 (sliding window) and Query11 (session window):
//     window-heavy 3-operator DAGs, optimal ≈ (1, 18, 2) at 30k and
//     (1, 11, 2) at 100k respectively.
//
// Each Spec carries the job's graph, default input rate and QoS targets
// from §V, and NewEngine assembles a ready-to-run simulator on the
// paper's 3×20-core testbed. A built-in workload's graph is built and
// validated once per process, and every engine built from its Spec
// shares it.
package workloads

import (
	"fmt"

	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/trace"
)

// Spec describes a benchmark workload.
type Spec struct {
	Name string
	// Graph is the job graph, shared read-only by every engine built
	// from the Spec. A built-in workload's graph is validated, and so
	// immutable. A Spec of one's own should carry a validated graph too:
	// the first Validate writes the topology, so engines built
	// concurrently from an unvalidated graph race.
	Graph *dataflow.Graph
	// DefaultRateRPS is the input rate used in §V-B (throughput
	// optimization).
	DefaultRateRPS float64
	// TargetLatencyMS is the latency requirement used in §V-C/D.
	TargetLatencyMS float64
}

// mustGraph builds and validates a built-in graph, panicking on an
// error: workload graphs are static.
func mustGraph(name string, ops []dataflow.Operator, edges [][2]string) *dataflow.Graph {
	g := dataflow.NewGraph(name)
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			panic(fmt.Sprintf("workloads: %s: %v", name, err))
		}
	}
	for _, e := range edges {
		if err := g.Connect(e[0], e[1]); err != nil {
			panic(fmt.Sprintf("workloads: %s: %v", name, err))
		}
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", name, err))
	}
	return g
}

// WordCount is the evaluation-section WordCount job (§V-B/C): target
// throughput 350k records/s, target latency 180 ms.
func WordCount() Spec { return wordCount }

var wordCount = Spec{Name: "wordcount",
	Graph: mustGraph("wordcount", []dataflow.Operator{
		{Name: "Source", Kind: dataflow.KindSource, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 130e3, SyncCost: 0.02, FixedLatencyMS: 8,
			QueueScaleMS: 1.5, MaxCongestion: 12, StateCostMS: 10, CommCostPerParallelism: 0.3,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "FlatMap", Kind: dataflow.KindTransform, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 100e3, SyncCost: 0.03, FixedLatencyMS: 12,
			QueueScaleMS: 2, MaxCongestion: 12, StateCostMS: 20, CommCostPerParallelism: 0.4,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "Count", Kind: dataflow.KindWindow, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 33e3, SyncCost: 0.01, FixedLatencyMS: 25,
			QueueScaleMS: 3, MaxCongestion: 12, StateCostMS: 120, CommCostPerParallelism: 0.8,
			CPUPerInstance: 1, MemPerInstanceMB: 2048,
		}},
		{Name: "Sink", Kind: dataflow.KindSink, Selectivity: 0, Profile: dataflow.Profile{
			BaseRatePerInstance: 42e3, SyncCost: 0.015, FixedLatencyMS: 10,
			QueueScaleMS: 2, MaxCongestion: 12, StateCostMS: 40, CommCostPerParallelism: 0.5,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
	}, [][2]string{{"Source", "FlatMap"}, {"FlatMap", "Count"}, {"Count", "Sink"}}),
	DefaultRateRPS: 350e3, TargetLatencyMS: 180}

// WordCountCaseStudy is the §II motivation configuration: a balanced
// pipeline whose uniform-parallelism sweep shows the non-linear
// throughput curve of Fig. 2(a) (≈150k/250k/275k/... at k = 1, 2, 3 with
// a 300k input) and the U-shaped latency of Fig. 2(b).
func WordCountCaseStudy() Spec { return wordCountCase }

var (
	// caseBottleneck is the case study's bottleneck operator: USL σ=0.1,
	// κ=0.06 gives total rates 150k, 246k, 288k, 297k, 288k, 273k for
	// k = 1..6.
	caseBottleneck = dataflow.Profile{
		BaseRatePerInstance: 150e3, SyncCost: 0.1, CrossCost: 0.06,
		FixedLatencyMS: 15, QueueScaleMS: 0.15, StateCostMS: 160,
		CommCostPerParallelism: 12, CPUPerInstance: 1, MemPerInstanceMB: 2048,
	}
	// caseFast is every other operator of the case study.
	caseFast = dataflow.Profile{
		BaseRatePerInstance: 400e3, SyncCost: 0.02, FixedLatencyMS: 8,
		QueueScaleMS: 0.1, StateCostMS: 20, CommCostPerParallelism: 1,
		CPUPerInstance: 1, MemPerInstanceMB: 1024,
	}
	wordCountCase = Spec{Name: "wordcount-case",
		Graph: mustGraph("wordcount-case", []dataflow.Operator{
			{Name: "Source", Kind: dataflow.KindSource, Selectivity: 1, Profile: caseFast},
			{Name: "FlatMap", Kind: dataflow.KindTransform, Selectivity: 1, Profile: caseFast},
			{Name: "Count", Kind: dataflow.KindWindow, Selectivity: 1, Profile: caseBottleneck},
			{Name: "Sink", Kind: dataflow.KindSink, Selectivity: 0, Profile: caseFast},
		}, [][2]string{{"Source", "FlatMap"}, {"FlatMap", "Count"}, {"Count", "Sink"}}),
		DefaultRateRPS: 300e3, TargetLatencyMS: 180}
)

// Yahoo is the extended Yahoo Streaming Benchmark (§V-A, Fig. 4): an ad
// analytics pipeline whose join/sink stage reads and writes Redis. The
// Redis substitute is an ExternalCapRPS of 34k records/s on the windowed
// sink — the reason its throughput cannot reach the 60k input rate and
// DS2-style iteration never converges (Fig. 5b).
func Yahoo() Spec { return yahoo }

var yahoo = Spec{Name: "yahoo",
	Graph: mustGraph("yahoo", []dataflow.Operator{
		{Name: "Source", Kind: dataflow.KindSource, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 16e3, SyncCost: 0.01, FixedLatencyMS: 10,
			QueueScaleMS: 2, StateCostMS: 20, CommCostPerParallelism: 0.4,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "Deserialize", Kind: dataflow.KindTransform, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 35e3, SyncCost: 0.02, FixedLatencyMS: 12,
			QueueScaleMS: 2, StateCostMS: 15, CommCostPerParallelism: 0.4,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "Filter", Kind: dataflow.KindTransform, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 80e3, SyncCost: 0.02, FixedLatencyMS: 8,
			QueueScaleMS: 1, StateCostMS: 10, CommCostPerParallelism: 0.3,
			CPUPerInstance: 1, MemPerInstanceMB: 512,
		}},
		{Name: "Projection", Kind: dataflow.KindTransform, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 90e3, SyncCost: 0.02, FixedLatencyMS: 8,
			QueueScaleMS: 1, StateCostMS: 10, CommCostPerParallelism: 0.3,
			CPUPerInstance: 1, MemPerInstanceMB: 512,
		}},
		{Name: "JoinSink", Kind: dataflow.KindSink, Selectivity: 0, Profile: dataflow.Profile{
			BaseRatePerInstance: 1.8e3, SyncCost: 0.005, FixedLatencyMS: 35,
			QueueScaleMS: 4, StateCostMS: 200, CommCostPerParallelism: 0.8,
			ExternalCapRPS: 34e3, CPUPerInstance: 1, MemPerInstanceMB: 2048,
		}},
	}, [][2]string{
		{"Source", "Deserialize"}, {"Deserialize", "Filter"},
		{"Filter", "Projection"}, {"Projection", "JoinSink"},
	}),
	DefaultRateRPS: 60e3, TargetLatencyMS: 300}

// NexmarkQ5 is Nexmark Query 5 (hot items, sliding window), evaluated at
// 30k records/s with a 500 ms latency target; the transfer-learning
// experiment trains its base model at 20k records/s (§V-D).
func NexmarkQ5() Spec { return nexmarkQ5 }

var nexmarkQ5 = Spec{Name: "nexmark-q5",
	Graph: mustGraph("nexmark-q5", []dataflow.Operator{
		{Name: "Source", Kind: dataflow.KindSource, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 60e3, SyncCost: 0.01, FixedLatencyMS: 10,
			QueueScaleMS: 2, StateCostMS: 15, CommCostPerParallelism: 0.5,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "SlidingWindow", Kind: dataflow.KindWindow, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 1.75e3, SyncCost: 0.004, FixedLatencyMS: 60,
			QueueScaleMS: 14, StateCostMS: 900, CommCostPerParallelism: 2.5,
			CPUPerInstance: 1, MemPerInstanceMB: 3072,
		}},
		{Name: "Sink", Kind: dataflow.KindSink, Selectivity: 0, Profile: dataflow.Profile{
			BaseRatePerInstance: 25e3, SyncCost: 0.02, FixedLatencyMS: 10,
			QueueScaleMS: 2, StateCostMS: 30, CommCostPerParallelism: 0.5,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
	}, [][2]string{{"Source", "SlidingWindow"}, {"SlidingWindow", "Sink"}}),
	DefaultRateRPS: 30e3, TargetLatencyMS: 500}

// NexmarkQ11 is Nexmark Query 11 (user sessions, session window),
// evaluated at 100k records/s with a 150 ms latency target; the transfer
// experiment trains at 80k records/s.
func NexmarkQ11() Spec { return nexmarkQ11 }

var nexmarkQ11 = Spec{Name: "nexmark-q11",
	Graph: mustGraph("nexmark-q11", []dataflow.Operator{
		{Name: "Source", Kind: dataflow.KindSource, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 150e3, SyncCost: 0.01, FixedLatencyMS: 8,
			QueueScaleMS: 1.5, StateCostMS: 10, CommCostPerParallelism: 0.4,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
		{Name: "SessionWindow", Kind: dataflow.KindWindow, Selectivity: 1, Profile: dataflow.Profile{
			BaseRatePerInstance: 9.5e3, SyncCost: 0.008, FixedLatencyMS: 30,
			QueueScaleMS: 3, StateCostMS: 300, CommCostPerParallelism: 1.5,
			CPUPerInstance: 1, MemPerInstanceMB: 2048,
		}},
		{Name: "Sink", Kind: dataflow.KindSink, Selectivity: 0, Profile: dataflow.Profile{
			BaseRatePerInstance: 80e3, SyncCost: 0.02, FixedLatencyMS: 8,
			QueueScaleMS: 1.5, StateCostMS: 20, CommCostPerParallelism: 0.4,
			CPUPerInstance: 1, MemPerInstanceMB: 1024,
		}},
	}, [][2]string{{"Source", "SessionWindow"}, {"SessionWindow", "Sink"}}),
	DefaultRateRPS: 100e3, TargetLatencyMS: 150}

// registry is the one table of built-in workloads, in registry order:
// the four evaluation workloads, then the case-study variant.
var registry = []Spec{wordCount, yahoo, nexmarkQ5, nexmarkQ11, wordCountCase}

// All returns every evaluation workload (excluding the case-study
// variant).
func All() []Spec {
	return append([]Spec(nil), registry[:len(registry)-1]...)
}

// ByName resolves a workload by its registry name — the lookup snapshot
// restores and declarative job submissions go through (graphs and
// profiles are code, so persisting the name is enough to rebuild the
// workload exactly). The case-study variant is resolvable too.
func ByName(name string) (Spec, bool) {
	for _, spec := range registry {
		if spec.Name == name {
			return spec, true
		}
	}
	return Spec{}, false
}

// Names lists the resolvable workload names, in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, spec := range registry {
		out[i] = spec.Name
	}
	return out
}

// EngineOptions customizes NewEngine.
type EngineOptions struct {
	// JobName overrides the metrics/trace job tag (default: the workload
	// name). A fleet runs many jobs of the same workload against one
	// store, so each needs a distinct tag.
	JobName string
	// Schedule overrides the constant DefaultRateRPS producer.
	Schedule kafka.RateSchedule
	// InitialParallelism defaults to all-1 (the paper's §V-B starting
	// point).
	InitialParallelism dataflow.ParallelismVector
	// Store receives metrics (optional).
	Store *metrics.Store
	// Seed for reproducibility.
	Seed uint64
	// NoNoise disables stochastic jitter (used by calibration tests).
	NoNoise bool
	// Cluster overrides the paper testbed.
	Cluster *cluster.Cluster
	// Tracer records rescale and measurement spans (optional).
	Tracer *trace.Tracer
	// Chaos injects faults into the engine (optional; nil disables).
	Chaos *chaos.Injector
	// RescaleMaxAttempts bounds the engine's retry-with-backoff rescale
	// path (0 keeps the flink default). Mostly useful under chaos
	// injection.
	RescaleMaxAttempts int
}

// NewEngine assembles a simulator for the workload on the paper's
// testbed (3 machines × 20 cores).
func NewEngine(spec Spec, opts EngineOptions) (*flink.Engine, error) {
	sched := opts.Schedule
	if sched == nil {
		sched = kafka.ConstantRate(spec.DefaultRateRPS)
	}
	topic, err := kafka.NewTopic(sched)
	if err != nil {
		return nil, err
	}
	cl := opts.Cluster
	if cl == nil {
		cl = cluster.PaperTestbed()
	}
	return flink.New(flink.Config{
		Graph:              spec.Graph,
		Cluster:            cl,
		Topic:              topic,
		JobName:            opts.JobName,
		Store:              opts.Store,
		Seed:               opts.Seed,
		NoNoise:            opts.NoNoise,
		InitialParallelism: opts.InitialParallelism,
		Tracer:             opts.Tracer,
		Chaos:              opts.Chaos,
		RescaleMaxAttempts: opts.RescaleMaxAttempts,
	})
}
