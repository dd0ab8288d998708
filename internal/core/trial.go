package core

import (
	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
)

// trialWarmupSec and trialMeasureSec are the policy-running window a
// trial pays: "the job needs a certain amount of time to restart and the
// QoS is extremely unstable at this time" (§IV).
const (
	trialWarmupSec  = policyIntervalSec / 2
	trialMeasureSec = 2 * policyIntervalSec
)

// Phase names the stage of a plan that measured a trial window.
type Phase uint8

// Trial phases.
const (
	PhaseEq3       Phase = iota // an Eq. 3 throughput-optimization window
	PhaseBootstrap              // Algorithm 1's uniform bootstrap set
	PhaseSeed                   // Algorithm 2's run at the base k'
	PhaseBO                     // a BO iteration's suggestion
	PhaseDS2                    // a DS2 linear-rule window
	PhaseDRS                    // a DRS queueing-model window
)

// Trial is the one record of a measured planner window: the phase that
// ran it, the configuration and its QoS outcome. Score and LatencyMet are
// the Eq. 4 score and latency verdict where a BO session judged the
// window; other phases leave them zero. Suggestion points at the stats of
// the suggestion that picked a PhaseBO trial and is nil on every other
// phase, so the rest of a plan's log does not carry them.
type Trial struct {
	Phase         Phase
	LatencyMet    bool
	Par           dataflow.ParallelismVector
	Score         float64
	ProcLatencyMS float64
	ThroughputRPS float64
	CPUUsedCores  float64
	MemUsedMB     float64
	Suggestion    *bo.SuggestionStats
}

// MeasureTrial is the one trial protocol every planner window goes
// through: rescale to par (nil measures the configuration in force) and
// measure one steady window, so a trial is judged at the current rate,
// not on backlog earlier trials left. The window is appended to log as a
// trial of phase ph, which keeps par, and MeasureTrial returns that entry
// for the caller to score; it is valid until log's next append. A failed
// rescale returns unmeasured and logs nothing.
func MeasureTrial(log *[]Trial, e *flink.Engine, ph Phase, par dataflow.ParallelismVector) (*Trial, error) {
	return measureWindow(log, e, ph, par, trialWarmupSec, trialMeasureSec)
}

// TrialWindow measures one trial-length window of the configuration in
// force outside any plan, and so logs it nowhere: the trigger window a
// caller hands Policy.Plan when no controller measured one.
func TrialWindow(e *flink.Engine) flink.Measurement {
	return e.MeasureSteady(trialWarmupSec, trialMeasureSec)
}

// measureWindow is MeasureTrial at a caller's window (Eq. 3's options).
func measureWindow(log *[]Trial, e *flink.Engine, ph Phase, par dataflow.ParallelismVector, warmupSec, measureSec float64) (*Trial, error) {
	if par == nil {
		par = e.Parallelism()
	} else if err := e.SetParallelism(par); err != nil {
		return nil, err
	}
	m := e.MeasureSteady(warmupSec, measureSec)
	*log = append(*log, Trial{
		Phase:         ph,
		Par:           par,
		ProcLatencyMS: m.ProcLatencyMS,
		ThroughputRPS: m.ThroughputRPS,
		CPUUsedCores:  m.CPUUsedCores,
		MemUsedMB:     m.MemUsedMB,
	})
	return &(*log)[len(*log)-1], nil
}

// countPhase counts log's trials of phase ph.
func countPhase(log []Trial, ph Phase) int {
	n := 0
	for _, tr := range log {
		if tr.Phase == ph {
			n++
		}
	}
	return n
}

// Iterations counts the Eq. 3 windows the optimizer judged: every logged
// window but the one it measures on reaching its bound.
func (r ThroughputResult) Iterations() int {
	if n := len(r.History); n > 0 && !r.ReachedTarget && !r.TerminatedByRepeat {
		return n - 1
	}
	return len(r.History)
}

// BootstrapRuns counts the session's bootstrap windows (Algorithm 2 runs
// none: it estimates them).
func (r *Algorithm1Result) BootstrapRuns() int { return countPhase(r.Trials, PhaseBootstrap) }

// Iterations counts the session's BO iterations.
func (r *Algorithm1Result) Iterations() int { return countPhase(r.Trials, PhaseBO) }
