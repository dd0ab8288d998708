package core

import (
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

// MeasureTrial is the one trial protocol every planner window goes
// through: rescale to par (nil measures the configuration in force) and
// measure one steady window, so a trial is judged at the current rate,
// not on backlog earlier trials left. A failed rescale returns unmeasured.
func MeasureTrial(e *flink.Engine, par dataflow.ParallelismVector) (flink.Measurement, error) {
	return measureWindow(e, par, trialWarmupSec, trialMeasureSec)
}

// measureWindow is MeasureTrial at a caller's window (Eq. 3's options).
func measureWindow(e *flink.Engine, par dataflow.ParallelismVector, warmupSec, measureSec float64) (flink.Measurement, error) {
	if par != nil {
		if err := e.SetParallelism(par); err != nil {
			return flink.Measurement{}, err
		}
	}
	return e.MeasureSteady(warmupSec, measureSec), nil
}
