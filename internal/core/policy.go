package core

import (
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
)

// PlanTrigger names what made the controller invoke its policy.
type PlanTrigger string

// Plan triggers.
const (
	// TriggerRateChange fires on a sustained input-rate shift (the
	// smoothed rate moved more than rateChangeFraction).
	TriggerRateChange PlanTrigger = "rate-change"
	// TriggerQoS fires when the measured window violates the latency or
	// throughput targets at an otherwise steady rate.
	TriggerQoS PlanTrigger = "qos"
)

// PlanRequest is everything a policy sees at a planning trigger: the
// monitor window that fired it, the rate to provision for, and the
// enclosing trace span (nil when tracing is off or the trigger opens no
// planning span — attribute writes on the nil span are no-ops).
type PlanRequest struct {
	// Trigger says why the controller is asking for a plan.
	Trigger PlanTrigger
	// RateRPS is the input rate the plan must sustain.
	RateRPS float64
	// Window is the monitor-phase measurement that fired the trigger —
	// per-operator true/observed rates, latency, throughput, lag.
	Window flink.Measurement
	// TimeSec is the simulated time of the triggering step.
	TimeSec float64
	// Span is the controller's planning span; policies may attach
	// attributes to it (nil-safe).
	Span *trace.ActiveSpan
}

// PlanResult is a policy's answer: the parallelism vector it left the
// engine on, plus the decision report the controller retains, journals,
// and feeds to the metrics instruments. Report.Action and Report.Reason
// are the rationale — they become the step's Event fields verbatim.
type PlanResult struct {
	// Par is the configuration the plan settled on (the engine is
	// already running it — policies reconfigure through the engine).
	Par dataflow.ParallelismVector
	// Report documents the decision. TimeSec/RateRPS/Action/Reason must
	// be set; the outcome fields are policy-specific.
	Report DecisionReport
}

// Policy is a pluggable scaling policy: monitor window and current state
// in, parallelism vector and rationale out. The controller drives any
// policy through the identical engine, chaos profile, trace/flight
// surface, SLO tracker, and degradation path:
//
//   - Plan runs a full planning session against the engine — policies
//     reconfigure via flink.Engine.SetParallelism and measure via
//     RunAndMeasure/MeasureSteady, exactly like the paper's Algorithm 1/2
//     does. Simulated time spent planning is the policy's cost.
//   - A Plan that dies on flink.ErrRescaleFailed (chaos, retries
//     exhausted) triggers the controller's degradation path: the
//     last-known-good configuration is kept and the controller re-plans
//     on the next tick. Any other error quarantines the job under fleet.
//   - Policies must be deterministic in (their own construction
//     parameters, the request): the tournament and the fleet goldens
//     replay byte-for-byte on the same seed.
//
// The built-in contenders live under internal/policy: the paper's
// BO/transfer planner (core.BOPolicy, the default), the DS2 linear rule
// (policy/ds2), and the DRS queueing model (policy/drs).
type Policy interface {
	// Name identifies the policy in tournament tables and journals.
	Name() string
	// Plan reacts to a trigger. See PlanRequest/PlanResult.
	Plan(e *flink.Engine, req PlanRequest) (PlanResult, error)
}

// PolicyEnv is the planner environment: the five per-job inputs every
// policy constructor draws from — the targets the job was admitted with
// plus the controller plumbing. It is the one declaration of them beside
// ControllerConfig: BOConfig, policy.Env and fleet.PolicyEnv are aliases,
// so a registry builder, a fleet job's builder and NewBOPolicy all take
// the same value. Builders ignore fields their policy has no use for —
// DS2 never reads TargetLatencyMS, and only BO touches the library.
type PolicyEnv struct {
	// TargetLatencyMS is the job's latency requirement l_t (BO and DRS
	// require it).
	TargetLatencyMS float64
	// MaxIterations bounds a policy's per-trigger planning loop (0: each
	// policy's default — Algorithm1Config's for BO).
	MaxIterations int
	// Seed drives any stochastic choices (BO's optimizer).
	Seed uint64
	// Library preloads benefit models; nil starts empty. The controller
	// adopts the BO policy's library, so fleet model publication and warm
	// starts see exactly what the policy learned.
	Library *transfer.ModelLibrary
	// Tracer threads through every planning span (nil disables).
	Tracer *trace.Tracer
}

// libraryProvider is implemented by policies that maintain a transfer
// model library (the BO policy); the controller adopts it so the fleet's
// model publication and warm-start machinery keep working.
type libraryProvider interface {
	Library() *transfer.ModelLibrary
}

// baseProvider is implemented by policies that track a throughput-stage
// base configuration (Eq. 3's k'); Controller.Base delegates to it.
type baseProvider interface {
	Base() dataflow.ParallelismVector
}
