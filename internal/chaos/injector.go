// Package chaos is the deterministic fault-injection subsystem of the
// reproduction: a seeded Injector that decides — reproducibly, from a
// single rand source — when rescale operations fail or stall, when
// measurement windows are dropped or corrupted, when machines die and
// recover, and when Kafka partitions stop serving reads.
//
// AuTraScale's value claim is that the controller keeps meeting
// latency/throughput targets *as conditions change* (PAPER.md §V), so
// every robustness-bearing code path — the flink engine's
// retry-with-backoff rescale, the controller's graceful degradation —
// is validated against seeded fault schedules from this package. Any
// change to Eq. 3 / Algorithm 1 / Algorithm 2 must survive the same
// schedules (see core.TestControllerChaosHeavySoak and docs/chaos.md).
//
// # Reproducibility contract
//
// An Injector owns exactly one stat.RNG seeded at construction. Fault
// decisions are drawn from that stream in simulation order, and a draw
// happens only when the corresponding fault class is enabled in the
// Profile (probability > 0). Two runs with the same Profile, the same
// seed, and the same sequence of queries therefore make identical fault
// decisions — a failed CI run is reproduced by re-running with the seed
// it logged. Scheduled faults (machine events, partition stalls) do not
// consume randomness at all; they fire at fixed simulated times.
//
// # Disabled path
//
// The nil *Injector is the disabled injector: every method is a no-op
// returning the zero fault decision, so instrumented paths cost nothing
// when chaos is off — the same convention as trace.Tracer.
package chaos

import (
	"fmt"
	"sort"

	"autrascale/internal/stat"
)

// MachineEvent schedules a machine kill (Down=true) or recovery at a
// fixed simulated time. An empty Machine name selects the victim
// deterministically at apply time: the first machine in sorted-name
// order that is currently up (for kills) or down (for recoveries), so
// the same schedule always hits the same machines regardless of map
// iteration order.
type MachineEvent struct {
	AtSec   float64
	Machine string
	Down    bool
}

// StallWindow stalls a fraction of the source topic's partitions during
// [FromSec, ToSec): the consumer cannot read the stalled share of the
// backlog until the window ends.
type StallWindow struct {
	FromSec  float64
	ToSec    float64
	Fraction float64 // in [0, 1)
}

// Profile describes which faults to inject and how hard. The zero
// Profile injects nothing.
type Profile struct {
	// Name labels the profile in logs and flags ("none", "light", ...).
	Name string

	// RescaleFailProb is the per-attempt probability that a rescale
	// operation fails (savepoint timeout, slot allocation failure). The
	// engine retries with exponential backoff up to its attempt budget.
	RescaleFailProb float64
	// RescaleDelayProb/RescaleDelaySec add extra restart downtime to a
	// successful rescale with the given probability (slow savepoints).
	RescaleDelayProb float64
	RescaleDelaySec  float64

	// WindowDropProb is the per-tick probability that the tick's samples
	// are lost to the measurement window (metrics reporter outage).
	WindowDropProb float64
	// WindowCorruptProb/WindowCorruptMax: with the given probability a
	// tick's measured values are scaled by a factor drawn uniformly from
	// [1/(1+max), 1+max] before entering the window (sensor corruption —
	// the simulated system itself is unaffected).
	WindowCorruptProb float64
	WindowCorruptMax  float64

	// MachineEvents are scheduled kills/recoveries, applied by the
	// engine as simulated time passes them (sorted by AtSec).
	MachineEvents []MachineEvent

	// Stalls are partition-stall windows for the source topic.
	Stalls []StallWindow
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.RescaleFailProb > 0 || p.RescaleDelayProb > 0 ||
		p.WindowDropProb > 0 || p.WindowCorruptProb > 0 ||
		len(p.MachineEvents) > 0 || len(p.Stalls) > 0
}

// None returns the empty profile.
func None() Profile { return Profile{Name: "none"} }

// Light returns a mild profile: occasional rescale failures and slow
// savepoints, rare measurement-window drops, no machine faults.
func Light() Profile {
	return Profile{
		Name:             "light",
		RescaleFailProb:  0.1,
		RescaleDelayProb: 0.1,
		RescaleDelaySec:  10,
		WindowDropProb:   0.01,
	}
}

// Heavy returns an aggressive profile: the acceptance scenario's 0.3
// rescale failure rate, corrupted and dropped measurement ticks, a
// machine kill/recovery cycle mid-run, and a partition-stall window.
func Heavy() Profile {
	return Profile{
		Name:              "heavy",
		RescaleFailProb:   0.3,
		RescaleDelayProb:  0.2,
		RescaleDelaySec:   20,
		WindowDropProb:    0.02,
		WindowCorruptProb: 0.02,
		WindowCorruptMax:  0.5,
		MachineEvents: []MachineEvent{
			{AtSec: 1200, Down: true},
			{AtSec: 2400, Down: false},
		},
		Stalls: []StallWindow{{FromSec: 1800, ToSec: 2100, Fraction: 0.5}},
	}
}

// ByName resolves a named profile — the -chaos flag values.
func ByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return None(), nil
	case "light":
		return Light(), nil
	case "heavy":
		return Heavy(), nil
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (want none, light or heavy)", name)
}

// Injector makes seeded fault decisions for one simulation. Not safe
// for concurrent use — a simulation queries it from its single driving
// goroutine, in simulation order. The nil *Injector injects nothing.
type Injector struct {
	profile   Profile
	rng       *stat.RNG
	nextEvent int // cursor into profile.MachineEvents
}

// New builds an injector for the profile, reproducible from seed.
// Machine events are sorted by time (stably, preserving the profile's
// order for same-instant events).
func New(profile Profile, seed uint64) *Injector {
	evs := append([]MachineEvent(nil), profile.MachineEvents...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].AtSec < evs[j].AtSec })
	profile.MachineEvents = evs
	return &Injector{
		profile: profile,
		rng:     stat.NewRNG(seed ^ 0x6c62_272e_07bb_0142),
	}
}

// Enabled reports whether faults are being injected.
func (in *Injector) Enabled() bool { return in != nil }

// FailRescale decides whether the next rescale attempt fails. A random
// draw happens only when the fault class is enabled, so disabling it
// leaves the stream untouched.
func (in *Injector) FailRescale() bool {
	if in == nil || in.profile.RescaleFailProb <= 0 {
		return false
	}
	return in.rng.Float64() < in.profile.RescaleFailProb
}

// RescaleDelaySec returns the extra restart downtime of a successful
// rescale (0 when the slow-savepoint fault is disabled or does not fire).
func (in *Injector) RescaleDelaySec() float64 {
	if in == nil || in.profile.RescaleDelayProb <= 0 {
		return 0
	}
	if in.rng.Float64() < in.profile.RescaleDelayProb {
		return in.profile.RescaleDelaySec
	}
	return 0
}

// WindowFault decides the fate of one measurement tick: dropped
// entirely, or scaled by the returned corruption factor (1 = clean).
func (in *Injector) WindowFault() (drop bool, factor float64) {
	factor = 1
	if in == nil {
		return false, 1
	}
	if in.profile.WindowDropProb > 0 && in.rng.Float64() < in.profile.WindowDropProb {
		return true, 1
	}
	if in.profile.WindowCorruptProb > 0 && in.rng.Float64() < in.profile.WindowCorruptProb {
		max := in.profile.WindowCorruptMax
		if max <= 0 {
			max = 0.5
		}
		lo := 1 / (1 + max)
		factor = lo + in.rng.Float64()*(1+max-lo)
	}
	return false, factor
}

// StallFraction returns the fraction of source partitions stalled at
// the given simulated time (scheduled, no randomness). Overlapping
// windows take the maximum fraction.
func (in *Injector) StallFraction(nowSec float64) float64 {
	if in == nil {
		return 0
	}
	var f float64
	for _, w := range in.profile.Stalls {
		if nowSec >= w.FromSec && nowSec < w.ToSec && w.Fraction > f {
			f = w.Fraction
		}
	}
	if f < 0 {
		return 0
	}
	if f >= 1 {
		f = 0.99
	}
	return f
}

// DueMachineEvents returns the scheduled machine events with
// AtSec <= nowSec that have not been handed out yet, advancing the
// cursor. Scheduled, no randomness.
func (in *Injector) DueMachineEvents(nowSec float64) []MachineEvent {
	if in == nil || in.nextEvent >= len(in.profile.MachineEvents) {
		return nil
	}
	var due []MachineEvent
	for in.nextEvent < len(in.profile.MachineEvents) &&
		in.profile.MachineEvents[in.nextEvent].AtSec <= nowSec {
		due = append(due, in.profile.MachineEvents[in.nextEvent])
		in.nextEvent++
	}
	return due
}
