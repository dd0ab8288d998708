package flink

// SetSampling keeps latency samples on every tick, outside any
// MeasureSteadySampled window, so a test can compare each tick's samples
// with the Reference, which always keeps them.
func (e *Engine) SetSampling(on bool) { e.sampling = on }
