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
//	spec := autrascale.WordCount()
//	engine, err := autrascale.NewEngine(spec, autrascale.EngineOptions{Seed: 1})
//	if err != nil { ... }
//
//	// Phase 1 (§III-C): find the minimum parallelism that sustains the
//	// input rate, using true processing rates (Eq. 3).
//	tr, err := autrascale.OptimizeThroughput(engine, autrascale.ThroughputOptions{
//	    TargetRate: spec.DefaultRateRPS,
//	})
//
//	// Phase 2 (Algorithm 1): Bayesian optimization of the benefit score
//	// until the latency target is met within the resource tolerance.
//	res, err := autrascale.RunAlgorithm1(engine, tr.Base, autrascale.Algorithm1Config{
//	    TargetRate:      spec.DefaultRateRPS,
//	    TargetLatencyMS: spec.TargetLatencyMS,
//	})
//	fmt.Println(res.Best.Par) // the recommended parallelism vector
//
// Controller runs the full MAPE loop (§IV) continuously: when the input
// rate changes it transfers the trained benefit model to the new rate
// (Algorithm 2) instead of re-learning from scratch.
//
// The package is a facade over what the programs under examples/ use:
// implementation lives in internal/ packages (internal/core for the
// algorithms, internal/flink for the simulator, internal/gp + internal/bo
// for the learning stack, internal/policy for the scaling policies and
// the DS2 and DRS baselines, internal/experiments for the paper's tables
// and figures).
package autrascale

import (
	"autrascale/internal/cluster"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/workloads"
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
	// StepSchedule changes rate at fixed boundaries.
	StepSchedule = kafka.StepSchedule
	// RateStep is one segment of a StepSchedule.
	RateStep = kafka.Step
)

// PaperTestbed returns the paper's 3×20-core evaluation cluster.
func PaperTestbed() *Cluster { return cluster.PaperTestbed() }

// NewTopic creates a source topic with the given partition count and
// producer schedule.
func NewTopic(name string, partitions int, schedule RateSchedule) (*Topic, error) {
	return kafka.NewTopic(name, partitions, schedule)
}

// ---- Simulator (internal/flink) ----

type (
	// Engine is the deterministic streaming-system simulator.
	Engine = flink.Engine
	// EngineConfig configures a bare engine (NewCustomEngine).
	EngineConfig = flink.Config
)

// NewCustomEngine assembles a simulator from explicit parts.
func NewCustomEngine(cfg EngineConfig) (*Engine, error) { return flink.New(cfg) }

// ---- Workloads (internal/workloads) ----

type (
	// WorkloadSpec describes a benchmark workload.
	WorkloadSpec = workloads.Spec
	// EngineOptions customizes NewEngine.
	EngineOptions = workloads.EngineOptions
)

// The paper's benchmark workloads (§V-A) the examples run.
var (
	WordCount  = workloads.WordCount
	NexmarkQ11 = workloads.NexmarkQ11
)

// NewEngine assembles a ready-to-run simulator for a workload.
func NewEngine(spec WorkloadSpec, opts EngineOptions) (*Engine, error) {
	return workloads.NewEngine(spec, opts)
}

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
	// Controller is the MAPE control loop (§IV).
	Controller = core.Controller
	// ControllerConfig parameterizes it.
	ControllerConfig = core.ControllerConfig
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

// NewController builds the MAPE controller for an engine.
func NewController(e *Engine, cfg ControllerConfig) (*Controller, error) {
	return core.NewController(e, cfg)
}
