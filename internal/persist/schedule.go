package persist

import (
	"fmt"

	"autrascale/internal/kafka"
)

// Rate-schedule persistence. kafka.RateSchedule is an interface over
// pure functions of simulated time, so schedules are persisted as typed
// descriptors and rebuilt on restore. A restored job's engine clock
// restarts at zero while its schedule was authored against the original
// timeline; ShiftSec records the job clock at capture so the rebuilt
// schedule answers RateAt(t) with the original RateAt(t + ShiftSec).
//
// Schedules outside the supported set (caller-supplied RateSchedule
// implementations, jittered wrappers of them, test doubles) degrade to a
// constant at the rate observed at capture time; Describe reports the
// degradation so callers can log it instead of silently flattening a
// workload.

// Schedule kinds.
const (
	scheduleKindConstant   = "constant"
	scheduleKindStep       = "step"
	scheduleKindSinusoidal = "sinusoidal"
	scheduleKindDiurnal    = "diurnal"
	scheduleKindFlashCrowd = "flash-crowd"
	scheduleKindSawtooth   = "sawtooth"
	scheduleKindNoisy      = "noisy"
)

// ScheduleState is a rate schedule's serialized descriptor. Kind selects
// which field group is meaningful.
type ScheduleState struct {
	Kind string `json:"kind"`
	// ShiftSec shifts the rebuilt schedule's clock: RateAt(t) answers
	// the original schedule's RateAt(t + ShiftSec).
	ShiftSec float64 `json:"shift_sec,omitempty"`
	// Degraded marks a schedule that could not be described exactly and
	// was flattened to a constant at the capture-time rate.
	Degraded bool `json:"degraded,omitempty"`

	// constant
	RateRPS float64 `json:"rate_rps,omitempty"`
	// step
	Steps []ScheduleStep `json:"steps,omitempty"`
	// sinusoidal
	Mean      float64 `json:"mean,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	PeriodSec float64 `json:"period_sec,omitempty"`
	PhaseSec  float64 `json:"phase_sec,omitempty"`
	// diurnal
	NightRate float64 `json:"night_rate,omitempty"`
	PeakRate  float64 `json:"peak_rate,omitempty"`
	PeakAtSec float64 `json:"peak_at_sec,omitempty"`
	Sharpness float64 `json:"sharpness,omitempty"`
	// flash-crowd
	BaseRate    float64 `json:"base_rate,omitempty"`
	StartSec    float64 `json:"start_sec,omitempty"`
	RampSec     float64 `json:"ramp_sec,omitempty"`
	HoldSec     float64 `json:"hold_sec,omitempty"`
	DecayTauSec float64 `json:"decay_tau_sec,omitempty"`
	// sawtooth
	MinRate float64 `json:"min_rate,omitempty"`
	MaxRate float64 `json:"max_rate,omitempty"`
	// noisy (wraps Base)
	Sigma float64        `json:"sigma,omitempty"`
	Seed  uint64         `json:"seed,omitempty"`
	Base  *ScheduleState `json:"base,omitempty"`
}

// ScheduleStep mirrors kafka.Step.
type ScheduleStep struct {
	FromSec float64 `json:"from_sec"`
	Rate    float64 `json:"rate"`
}

// DescribeSchedule captures a schedule as a descriptor. nowSec is the
// job clock at capture: it becomes the descriptor's ShiftSec and, for
// schedules outside the supported set, the sample point of the
// constant-rate fallback (exact reports false then).
func DescribeSchedule(s kafka.RateSchedule, nowSec float64) (st ScheduleState, exact bool) {
	st, exact = describe(s)
	// Accumulate rather than overwrite: a schedule that is itself a
	// restored shiftedSchedule carries its prior shift, so snapshots of
	// restored fleets keep composing against the original timeline.
	st.ShiftSec += nowSec
	if !exact {
		st = ScheduleState{
			Kind:     scheduleKindConstant,
			RateRPS:  s.RateAt(nowSec),
			ShiftSec: nowSec,
			Degraded: true,
		}
	}
	return st, exact
}

func describe(s kafka.RateSchedule) (ScheduleState, bool) {
	switch v := s.(type) {
	case kafka.ConstantRate:
		return ScheduleState{Kind: scheduleKindConstant, RateRPS: float64(v)}, true
	case kafka.StepSchedule:
		steps := make([]ScheduleStep, len(v.Steps))
		for i, step := range v.Steps {
			steps[i] = ScheduleStep{FromSec: step.FromSec, Rate: step.Rate}
		}
		return ScheduleState{Kind: scheduleKindStep, Steps: steps}, true
	case kafka.SinusoidalRate:
		return ScheduleState{
			Kind: scheduleKindSinusoidal,
			Mean: v.Mean, Amplitude: v.Amplitude,
			PeriodSec: v.PeriodSec, PhaseSec: v.PhaseSec,
		}, true
	case kafka.DiurnalRate:
		return ScheduleState{
			Kind:      scheduleKindDiurnal,
			NightRate: v.NightRate, PeakRate: v.PeakRate,
			PeriodSec: v.PeriodSec, PeakAtSec: v.PeakAtSec, Sharpness: v.Sharpness,
		}, true
	case kafka.FlashCrowdRate:
		return ScheduleState{
			Kind:     scheduleKindFlashCrowd,
			BaseRate: v.BaseRate, PeakRate: v.PeakRate, StartSec: v.StartSec,
			RampSec: v.RampSec, HoldSec: v.HoldSec, DecayTauSec: v.DecayTauSec,
		}, true
	case kafka.SawtoothRate:
		return ScheduleState{
			Kind:    scheduleKindSawtooth,
			MinRate: v.MinRate, MaxRate: v.MaxRate,
			PeriodSec: v.PeriodSec, PhaseSec: v.PhaseSec,
		}, true
	case kafka.NoisyRate:
		base, exact := describe(v.Base)
		if !exact {
			return ScheduleState{}, false
		}
		return ScheduleState{Kind: scheduleKindNoisy, Sigma: v.Sigma, Seed: v.Seed, Base: &base}, true
	case shiftedSchedule:
		st, exact := describe(v.base)
		if !exact {
			return ScheduleState{}, false
		}
		st.ShiftSec += v.shift
		return st, true
	}
	return ScheduleState{}, false
}

// shiftedSchedule replays a base schedule with its clock moved forward:
// a restored engine's t=0 corresponds to the original run's t=ShiftSec.
type shiftedSchedule struct {
	base  kafka.RateSchedule
	shift float64
}

// RateAt implements kafka.RateSchedule.
func (s shiftedSchedule) RateAt(sec float64) float64 { return s.base.RateAt(sec + s.shift) }

// BuildSchedule rebuilds a schedule from its descriptor, applying the
// descriptor's clock shift.
func BuildSchedule(st ScheduleState) (kafka.RateSchedule, error) {
	base, err := build(st)
	if err != nil {
		return nil, err
	}
	if st.ShiftSec != 0 {
		return shiftedSchedule{base: base, shift: st.ShiftSec}, nil
	}
	return base, nil
}

func build(st ScheduleState) (kafka.RateSchedule, error) {
	switch st.Kind {
	case scheduleKindConstant:
		return kafka.ConstantRate(st.RateRPS), nil
	case scheduleKindStep:
		steps := make([]kafka.Step, len(st.Steps))
		for i, s := range st.Steps {
			steps[i] = kafka.Step{FromSec: s.FromSec, Rate: s.Rate}
		}
		return kafka.StepSchedule{Steps: steps}, nil
	case scheduleKindSinusoidal:
		return kafka.SinusoidalRate{
			Mean: st.Mean, Amplitude: st.Amplitude,
			PeriodSec: st.PeriodSec, PhaseSec: st.PhaseSec,
		}, nil
	case scheduleKindDiurnal:
		return kafka.DiurnalRate{
			NightRate: st.NightRate, PeakRate: st.PeakRate,
			PeriodSec: st.PeriodSec, PeakAtSec: st.PeakAtSec, Sharpness: st.Sharpness,
		}, nil
	case scheduleKindFlashCrowd:
		return kafka.FlashCrowdRate{
			BaseRate: st.BaseRate, PeakRate: st.PeakRate, StartSec: st.StartSec,
			RampSec: st.RampSec, HoldSec: st.HoldSec, DecayTauSec: st.DecayTauSec,
		}, nil
	case scheduleKindSawtooth:
		return kafka.SawtoothRate{
			MinRate: st.MinRate, MaxRate: st.MaxRate,
			PeriodSec: st.PeriodSec, PhaseSec: st.PhaseSec,
		}, nil
	case scheduleKindNoisy:
		if st.Base == nil {
			return nil, fmt.Errorf("persist: noisy schedule without a base")
		}
		inner, err := build(*st.Base)
		if err != nil {
			return nil, err
		}
		return kafka.NoisyRate{Base: inner, Sigma: st.Sigma, Seed: st.Seed}, nil
	}
	return nil, fmt.Errorf("persist: unknown schedule kind %q", st.Kind)
}
