// Package autrascale is an implementation of AuTraScale — "An Automated
// and Transfer Learning Solution for Streaming System Auto-Scaling"
// (Zhang, Zheng, Li, Shen, Guo — IPDPS 2021) — together with the full
// substrate the paper's evaluation needs: a deterministic Flink-like
// stream-processing simulator, a Kafka-like partitioned source, Gaussian
// process regression and Bayesian optimization built from scratch, the
// DS2 and DRS baselines, the paper's four benchmark workloads, and one
// experiment runner per table/figure of the evaluation section.
//
// # Quick start
//
// Bring a topology, size it for an input rate, then tune it for a
// latency target (examples/custom_workload is this flow, end to end):
//
//	g := autrascale.NewGraph("my-job")
//	// g.AddOperator(autrascale.Operator{...}) per operator, then g.Connect(from, to)
//	topic, err := autrascale.NewTopic(autrascale.ConstantRate(rate))
//	engine, err := autrascale.NewCustomEngine(autrascale.EngineConfig{
//	    Graph: g, Cluster: autrascale.PaperTestbed(), Topic: topic, Seed: 1,
//	})
//
//	// Phase 1 (§III-C): find the minimum parallelism that sustains the
//	// input rate, using true processing rates (Eq. 3).
//	tr, err := autrascale.OptimizeThroughput(engine, autrascale.ThroughputOptions{
//	    TargetRate: rate,
//	})
//
//	// Phase 2 (Algorithm 1): Bayesian optimization of the benefit score
//	// until the latency target is met within the resource tolerance.
//	res, err := autrascale.RunAlgorithm1(engine, tr.Base, autrascale.Algorithm1Config{
//	    TargetRate:      rate,
//	    TargetLatencyMS: latencyMS,
//	})
//	fmt.Println(res.Best.Par) // the recommended parallelism vector
//
// The package is a facade over what examples/custom_workload uses:
// implementation lives in internal/ packages (internal/core for the
// algorithms, internal/flink for the simulator, internal/gp + internal/bo
// for the learning stack, internal/policy for the scaling policies and
// the DS2 and DRS baselines, internal/experiments for the paper's tables
// and figures). The MAPE controller, Algorithm 2 and the paper's
// workloads are driven by the commands under cmd/.
package autrascale

import (
	"autrascale/internal/cluster"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

// ---- Job graphs and configurations (internal/dataflow) ----

type (
	// Graph is a stream-processing job: a DAG of operators.
	Graph = dataflow.Graph
	// Operator is one vertex of a job graph.
	Operator = dataflow.Operator
	// Profile carries an operator's simulated performance parameters.
	Profile = dataflow.Profile
	// ParallelismVector assigns a parallelism to every operator — the
	// configuration space all policies search over.
	ParallelismVector = dataflow.ParallelismVector
)

// Operator kinds.
const (
	KindSource    = dataflow.KindSource
	KindTransform = dataflow.KindTransform
	KindWindow    = dataflow.KindWindow
	KindSink      = dataflow.KindSink
)

// NewGraph returns an empty job graph with the given name.
func NewGraph(name string) *Graph { return dataflow.NewGraph(name) }

// ---- Cluster and source substrate (internal/cluster, internal/kafka) ----

type (
	// Cluster models the worker machines and their interference.
	Cluster = cluster.Cluster
	// Topic is the Kafka-like partitioned source log.
	Topic = kafka.Topic
	// RateSchedule yields the producer rate over time.
	RateSchedule = kafka.RateSchedule
	// ConstantRate is a fixed-rate schedule.
	ConstantRate = kafka.ConstantRate
)

// PaperTestbed returns the paper's 3×20-core evaluation cluster.
func PaperTestbed() *Cluster { return cluster.PaperTestbed() }

// NewTopic creates a source topic fed by the producer schedule.
func NewTopic(schedule RateSchedule) (*Topic, error) { return kafka.NewTopic(schedule) }

// ---- Simulator (internal/flink) ----

type (
	// Engine is the deterministic streaming-system simulator.
	Engine = flink.Engine
	// EngineConfig configures a bare engine (NewCustomEngine).
	EngineConfig = flink.Config
)

// NewCustomEngine assembles a simulator from explicit parts.
func NewCustomEngine(cfg EngineConfig) (*Engine, error) { return flink.New(cfg) }

// ---- AuTraScale policies (internal/core) ----

type (
	// ThroughputOptions controls the §III-C throughput optimizer.
	ThroughputOptions = core.ThroughputOptions
	// ThroughputResult is its outcome (Base is k').
	ThroughputResult = core.ThroughputResult
	// Algorithm1Config parameterizes Bayesian optimization at a steady
	// rate (paper Algorithm 1).
	Algorithm1Config = core.Algorithm1Config
	// Algorithm1Result is its outcome.
	Algorithm1Result = core.Algorithm1Result
)

// OptimizeThroughput runs the Eq. 3 iteration with AuTraScale's
// repeated-configuration termination and history review.
func OptimizeThroughput(e *Engine, opts ThroughputOptions) (ThroughputResult, error) {
	return core.OptimizeThroughput(e, opts)
}

// RunAlgorithm1 runs Bayesian optimization at a steady input rate.
func RunAlgorithm1(e *Engine, base ParallelismVector, cfg Algorithm1Config) (*Algorithm1Result, error) {
	return core.RunAlgorithm1(e, base, cfg)
}
