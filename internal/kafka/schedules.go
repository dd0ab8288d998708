package kafka

import (
	"math"

	"autrascale/internal/stat"
)

// SinusoidalRate models a diurnal workload: rate oscillates around Mean
// with the given Amplitude and Period. Rates are floored at zero.
type SinusoidalRate struct {
	Mean      float64
	Amplitude float64
	PeriodSec float64
	// PhaseSec shifts the wave (0 starts at the mean, rising).
	PhaseSec float64
}

// RateAt returns the instantaneous rate.
func (s SinusoidalRate) RateAt(sec float64) float64 {
	if s.PeriodSec <= 0 {
		return s.Mean
	}
	r := s.Mean + s.Amplitude*math.Sin(2*math.Pi*(sec+s.PhaseSec)/s.PeriodSec)
	if r < 0 {
		return 0
	}
	return r
}

// DiurnalRate models a day/night workload with a sharper-than-sinusoid
// daytime peak: a raised-cosine bump taken to a power, so traffic hugs
// the night baseline and concentrates around the peak hour the way real
// diurnal traces do (the tournament's "diurnal" workload axis).
//
//	rate(t) = Night + (Peak − Night) · ((1 + cos(2π(t − PeakAtSec)/Period))/2)^Sharpness
type DiurnalRate struct {
	// NightRate is the off-peak baseline; PeakRate the daily maximum.
	NightRate, PeakRate float64
	// PeriodSec is the cycle length (default 86400 — one day).
	PeriodSec float64
	// PeakAtSec places the peak within the cycle.
	PeakAtSec float64
	// Sharpness >= 1 narrows the peak (1 is a plain raised cosine;
	// values < 1 are clamped to 1).
	Sharpness float64
}

// RateAt returns the instantaneous rate.
func (d DiurnalRate) RateAt(sec float64) float64 {
	period := d.PeriodSec
	if period <= 0 {
		period = 86400
	}
	sharp := d.Sharpness
	if sharp < 1 {
		sharp = 1
	}
	bump := (1 + math.Cos(2*math.Pi*(sec-d.PeakAtSec)/period)) / 2
	r := d.NightRate + (d.PeakRate-d.NightRate)*math.Pow(bump, sharp)
	if r < 0 {
		return 0
	}
	return r
}

// FlashCrowdRate models a viral-event spike on top of a steady baseline:
// a linear ramp from Base to Peak starting at StartSec, a plateau, then
// an exponential decay back toward Base (the tournament's "flash-crowd"
// workload axis — the shape DS2's one-shot rule likes and BO's
// measurement cost punishes).
type FlashCrowdRate struct {
	// BaseRate is the pre/post-event rate; PeakRate the spike maximum.
	BaseRate, PeakRate float64
	// StartSec is when the ramp begins.
	StartSec float64
	// RampSec is the climb duration (default 60).
	RampSec float64
	// HoldSec is the plateau duration at PeakRate (default 0).
	HoldSec float64
	// DecayTauSec is the exponential-decay time constant after the
	// plateau (default 300).
	DecayTauSec float64
}

// RateAt returns the instantaneous rate.
func (f FlashCrowdRate) RateAt(sec float64) float64 {
	ramp := f.RampSec
	if ramp <= 0 {
		ramp = 60
	}
	tau := f.DecayTauSec
	if tau <= 0 {
		tau = 300
	}
	r := f.BaseRate
	switch dt := sec - f.StartSec; {
	case dt < 0:
		// before the event
	case dt < ramp:
		r = f.BaseRate + (f.PeakRate-f.BaseRate)*dt/ramp
	case dt < ramp+f.HoldSec:
		r = f.PeakRate
	default:
		r = f.BaseRate + (f.PeakRate-f.BaseRate)*math.Exp(-(dt-ramp-f.HoldSec)/tau)
	}
	if r < 0 {
		return 0
	}
	return r
}

// SawtoothRate ramps linearly from Min to Max over each period, then
// drops straight back to Min — a worst case for reactive policies, which
// chase the ramp with repeated small rescales and then face an abrupt
// reset (the tournament's "sawtooth" workload axis).
type SawtoothRate struct {
	MinRate, MaxRate float64
	PeriodSec        float64
	// PhaseSec shifts the ramp (0 starts at MinRate).
	PhaseSec float64
}

// RateAt returns the instantaneous rate.
func (s SawtoothRate) RateAt(sec float64) float64 {
	if s.PeriodSec <= 0 {
		return s.MinRate
	}
	frac := math.Mod(sec+s.PhaseSec, s.PeriodSec) / s.PeriodSec
	if frac < 0 {
		frac += 1
	}
	r := s.MinRate + (s.MaxRate-s.MinRate)*frac
	if r < 0 {
		return 0
	}
	return r
}

// NoisyRate wraps a schedule with multiplicative log-normal jitter, for
// realistic "time-varying rate" inputs (paper §I). The jitter is
// deterministic in (seed, sec) so the schedule stays reproducible and
// time-consistent across queries.
type NoisyRate struct {
	Base RateSchedule
	// Sigma is the log-normal sigma (e.g. 0.05 for ±5%-ish).
	Sigma float64
	Seed  uint64
}

// RateAt returns the jittered rate.
func (n NoisyRate) RateAt(sec float64) float64 {
	r := n.Base.RateAt(sec)
	if n.Sigma <= 0 || r <= 0 {
		return r
	}
	// Hash the integer second with the seed into a per-tick RNG so the
	// jitter is stable for a given time.
	rng := stat.NewRNG(n.Seed ^ uint64(int64(sec))*0x9e37_79b9_7f4a_7c15)
	return r * rng.LogNormal(0, n.Sigma)
}
