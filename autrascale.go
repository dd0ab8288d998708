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
// When the input rate changes, RunAlgorithm2 transfers the trained
// benefit model to the new rate instead of re-learning from scratch, and
// Controller runs the full MAPE loop (§IV) continuously.
//
// The package is a facade: implementation lives in internal/ packages
// (internal/core for the algorithms, internal/flink for the simulator,
// internal/gp + internal/bo for the learning stack, internal/policy/ds2
// and internal/policy/drs for the baselines, internal/experiments for
// the paper's tables and figures).
package autrascale

import (
	"autrascale/internal/bo"
	"autrascale/internal/chaos"
	"autrascale/internal/cluster"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/experiments"
	"autrascale/internal/fleet"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/policy/drs"
	"autrascale/internal/policy/ds2"
	"autrascale/internal/slo"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

// ---- Job graphs and configurations (internal/dataflow) ----

type (
	// Graph is a stream-processing job: a DAG of operators.
	Graph = dataflow.Graph
	// Operator is one vertex of a job graph.
	Operator = dataflow.Operator
	// OperatorKind classifies operators (source/transform/window/sink).
	OperatorKind = dataflow.OperatorKind
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

// UniformParallelism returns an n-operator vector of k everywhere.
func UniformParallelism(n, k int) ParallelismVector { return dataflow.Uniform(n, k) }

// ---- Cluster and source substrate (internal/cluster, internal/kafka) ----

type (
	// Cluster models the worker machines and their interference.
	Cluster = cluster.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = cluster.Config
	// Machine is one worker node.
	Machine = cluster.Machine
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

// NewCluster builds a cluster from config.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// PaperTestbed returns the paper's 3×20-core evaluation cluster.
func PaperTestbed() *Cluster { return cluster.PaperTestbed() }

// NewTopic creates a source topic with the given partition count and
// producer schedule.
func NewTopic(name string, partitions int, schedule RateSchedule) (*Topic, error) {
	return kafka.NewTopic(name, partitions, schedule)
}

// IncreasingRate builds the paper's CASE-1 style ramp schedule.
func IncreasingRate(startRate, stepRate, stepEverySec float64) RateSchedule {
	return kafka.IncreasingRate(startRate, stepRate, stepEverySec)
}

// ---- Simulator (internal/flink) ----

type (
	// Engine is the deterministic streaming-system simulator.
	Engine = flink.Engine
	// EngineConfig configures a bare engine (NewCustomEngine).
	EngineConfig = flink.Config
	// Measurement is an aggregated observation window.
	Measurement = flink.Measurement
	// MetricsStore is the in-memory time-series database.
	MetricsStore = metrics.Store
)

// NewCustomEngine assembles a simulator from explicit parts.
func NewCustomEngine(cfg EngineConfig) (*Engine, error) { return flink.New(cfg) }

// NewMetricsStore returns an empty time-series store.
func NewMetricsStore() *MetricsStore { return metrics.NewStore() }

// ---- Fault injection (internal/chaos) ----

type (
	// ChaosInjector makes seeded, reproducible fault decisions.
	ChaosInjector = chaos.Injector
	// ChaosProfile describes which faults to inject and how hard.
	ChaosProfile = chaos.Profile
	// MachineEvent schedules a machine kill or recovery.
	MachineEvent = chaos.MachineEvent
	// StallWindow stalls a fraction of source partitions for a period.
	StallWindow = chaos.StallWindow
)

// NewChaosInjector builds a fault injector reproducible from seed.
func NewChaosInjector(profile ChaosProfile, seed uint64) *ChaosInjector {
	return chaos.New(profile, seed)
}

// ChaosProfileByName resolves "none", "light" or "heavy".
func ChaosProfileByName(name string) (ChaosProfile, error) { return chaos.ByName(name) }

// ErrRescaleFailed marks a rescale that exhausted its retry budget.
var ErrRescaleFailed = flink.ErrRescaleFailed

// ---- Workloads (internal/workloads) ----

type (
	// WorkloadSpec describes a benchmark workload.
	WorkloadSpec = workloads.Spec
	// EngineOptions customizes NewEngine.
	EngineOptions = workloads.EngineOptions
)

// The paper's benchmark workloads (§V-A).
var (
	WordCount          = workloads.WordCount
	WordCountCaseStudy = workloads.WordCountCaseStudy
	Yahoo              = workloads.Yahoo
	NexmarkQ5          = workloads.NexmarkQ5
	NexmarkQ11         = workloads.NexmarkQ11
	AllWorkloads       = workloads.All
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
	// Algorithm2Config parameterizes transfer learning at a changed rate
	// (paper Algorithm 2).
	Algorithm2Config = core.Algorithm2Config
	// Algorithm2Result is its outcome.
	Algorithm2Result = core.Algorithm2Result
	// Trial is one evaluated configuration.
	Trial = core.Trial
	// UnifiedModel is the rate-unbound joint benefit model (the paper's
	// stated future work): one GP over (parallelism, rate).
	UnifiedModel = core.UnifiedModel
	// UnifiedModelConfig parameterizes NewUnifiedModel.
	UnifiedModelConfig = core.UnifiedModelConfig
	// Controller is the MAPE control loop (§IV).
	Controller = core.Controller
	// ControllerConfig parameterizes it.
	ControllerConfig = core.ControllerConfig
	// ControllerEvent records one controller decision.
	ControllerEvent = core.Event
	// DecisionReport is the full "why this configuration" record kept
	// per planning session.
	DecisionReport = core.DecisionReport
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

// RunAlgorithm2 runs the transfer-learning method at a changed rate,
// reusing the previous benefit model.
func RunAlgorithm2(e *Engine, base ParallelismVector, prev BenefitModel, cfg Algorithm2Config) (*Algorithm2Result, error) {
	return core.RunAlgorithm2(e, base, prev, cfg)
}

// NewController builds the MAPE controller for an engine.
func NewController(e *Engine, cfg ControllerConfig) (*Controller, error) {
	return core.NewController(e, cfg)
}

// NewUnifiedModel builds an empty rate-unbound benefit model.
func NewUnifiedModel(cfg UnifiedModelConfig) (*UnifiedModel, error) {
	return core.NewUnifiedModel(cfg)
}

// ---- Learning stack (internal/gp, internal/bo, internal/transfer) ----

type (
	// BenefitModel predicts the benefit score of a configuration; the
	// fitted Gaussian process models satisfy it.
	BenefitModel = transfer.Predictor
	// GPRegressor is the exact Gaussian-process regressor.
	GPRegressor = gp.Regressor
	// BOOptimizer is the Bayesian-optimization loop over parallelism
	// vectors.
	BOOptimizer = bo.Optimizer
	// ModelLibrary stores benefit models keyed by input rate.
	ModelLibrary = transfer.ModelLibrary
)

// ExpectedImprovement exposes the acquisition function (Eq. 5–7).
func ExpectedImprovement(mean, std, fBest, xi float64) float64 {
	return bo.ExpectedImprovement(mean, std, fBest, xi)
}

// ---- Baselines (internal/policy/ds2, internal/policy/drs) ----

type (
	// DS2Policy is the DS2 (OSDI'18) linear-rule baseline.
	DS2Policy = ds2.Policy
	// DS2Result summarizes a DS2 run.
	DS2Result = ds2.Result
	// DS2RunOptions controls a DS2 control loop.
	DS2RunOptions = ds2.RunOptions
	// DRSPolicy is the queueing-theory DRS baseline.
	DRSPolicy = drs.Policy
	// DRSResult summarizes a DRS run.
	DRSResult = drs.Result
	// DRSRunOptions controls a DRS control loop.
	DRSRunOptions = drs.RunOptions
	// DRSVariant selects the rate metric DRS consumes.
	DRSVariant = drs.Variant
)

// DRS variants.
const (
	DRSTrueRate     = drs.VariantTrueRate
	DRSObservedRate = drs.VariantObservedRate
)

// NewDS2Policy builds a DS2 baseline policy.
func NewDS2Policy(pmax int, targetRate float64) (*DS2Policy, error) {
	return ds2.NewPolicy(pmax, targetRate)
}

// NewDRSPolicy builds a DRS baseline policy.
func NewDRSPolicy(v DRSVariant, pmax int, targetRate, targetLatencyMS float64) (*DRSPolicy, error) {
	return drs.NewPolicy(v, pmax, targetRate, targetLatencyMS)
}

// ---- Fleet control plane (internal/fleet) ----

type (
	// Fleet runs many AuTraScale jobs under one sharded scheduler with
	// cross-job model transfer (see docs/fleet.md).
	Fleet = fleet.Fleet
	// FleetConfig parameterizes NewFleet.
	FleetConfig = fleet.Config
	// FleetJobSpec describes one job submission.
	FleetJobSpec = fleet.JobSpec
	// FleetStatus is a point-in-time fleet snapshot.
	FleetStatus = fleet.Status
	// FleetJobStatus summarizes one job inside a snapshot.
	FleetJobStatus = fleet.JobStatus
	// FleetHealth is the fleet's incremental burn-rate health aggregate.
	FleetHealth = fleet.FleetHealth
	// FleetBurnRank is one entry of the fleet's worst-burn ranking.
	FleetBurnRank = fleet.BurnRank
)

// ---- SLO tracking and the flight recorder (internal/slo, internal/trace) ----

type (
	// SLOHealth is a tracker's point-in-time burn-rate report.
	SLOHealth = slo.Health
	// SLOState classifies a job: healthy, degraded, or burning.
	SLOState = slo.State
	// FlightRecorder is the bounded structured event journal linking
	// decisions, BO iterations, rescales, and chaos injections.
	FlightRecorder = trace.FlightRecorder
	// FlightRecord is one flight-recorder event.
	FlightRecord = trace.Record
)

// SLO health states, from best to worst.
const (
	SLOHealthy  = slo.StateHealthy
	SLODegraded = slo.StateDegraded
	SLOBurning  = slo.StateBurning
)

// NewFlightRecorder builds a flight recorder retaining the most recent
// capacity records (trace.DefaultFlightCapacity when capacity <= 0).
// Attach it to a tracer with Tracer.AttachFlight.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return trace.NewFlightRecorder(capacity)
}

// Fleet job lifecycle states and sentinel errors.
const (
	FleetJobRunning     = fleet.StateRunning
	FleetJobQuarantined = fleet.StateQuarantined
	FleetJobDrained     = fleet.StateDrained
)

var (
	ErrFleetAdmissionRejected = fleet.ErrAdmissionRejected
	ErrFleetDuplicateJob      = fleet.ErrDuplicateJob
	ErrFleetUnknownJob        = fleet.ErrUnknownJob
)

// NewFleet builds an empty multi-job control plane.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// StaggeredFleetJobs builds n staggered-rate copies of a workload — the
// canonical fleet submission set.
func StaggeredFleetJobs(spec WorkloadSpec, n int, baseRate float64) []FleetJobSpec {
	return fleet.StaggeredJobs(spec, n, baseRate)
}

// ---- Experiments (internal/experiments) ----

type (
	// ExperimentTable is a renderable result table.
	ExperimentTable = experiments.Table
	// ElasticityScenario selects scale-up or scale-down.
	ElasticityScenario = experiments.Scenario
)

// Elasticity scenarios.
const (
	ScaleUp   = experiments.ScaleUp
	ScaleDown = experiments.ScaleDown
)

// Experiment runners, one per table/figure of the paper's evaluation,
// plus the design-choice ablations.
var (
	RunFig1       = experiments.RunFig1
	RunFig2       = experiments.RunFig2
	RunFig5       = experiments.RunFig5
	RunElasticity = experiments.RunElasticity
	RunFig8       = experiments.RunFig8
	RunTable4     = experiments.RunTable4
	RunAblation   = experiments.RunAblation
)
