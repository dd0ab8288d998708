package kafka

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSinusoidalRate(t *testing.T) {
	s := SinusoidalRate{Mean: 1000, Amplitude: 200, PeriodSec: 3600}
	if got := s.RateAt(0); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("RateAt(0) = %v, want mean", got)
	}
	if got := s.RateAt(900); math.Abs(got-1200) > 1e-9 { // quarter period: peak
		t.Fatalf("RateAt(quarter) = %v, want 1200", got)
	}
	if got := s.RateAt(2700); math.Abs(got-800) > 1e-9 { // three quarters: trough
		t.Fatalf("RateAt(3/4) = %v, want 800", got)
	}
	// Degenerate period returns the mean.
	if (SinusoidalRate{Mean: 5}).RateAt(123) != 5 {
		t.Fatal("zero period should return the mean")
	}
	// Amplitude > mean floors at zero.
	deep := SinusoidalRate{Mean: 100, Amplitude: 500, PeriodSec: 100}
	if deep.RateAt(75) != 0 {
		t.Fatalf("trough should floor at 0, got %v", deep.RateAt(75))
	}
}

// Property: sinusoid stays within [max(0, mean-amp), mean+amp] and is
// periodic.
func TestSinusoidalBounds(t *testing.T) {
	s := SinusoidalRate{Mean: 1000, Amplitude: 300, PeriodSec: 600}
	f := func(raw float64) bool {
		sec := math.Mod(math.Abs(raw), 1e6)
		v := s.RateAt(sec)
		if v < 700-1e-9 || v > 1300+1e-9 {
			return false
		}
		return math.Abs(s.RateAt(sec)-s.RateAt(sec+600)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalRate(t *testing.T) {
	d := DiurnalRate{NightRate: 500, PeakRate: 2000, PeriodSec: 86400, PeakAtSec: 43200, Sharpness: 4}
	if got := d.RateAt(43200); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("RateAt(peak) = %v, want 2000", got)
	}
	// Half a period from the peak the bump vanishes: pure night baseline.
	if got := d.RateAt(0); math.Abs(got-500) > 1e-9 {
		t.Fatalf("RateAt(midnight) = %v, want 500", got)
	}
	// Sharpness narrows the peak: at ±3h the sharp curve sits below the
	// plain raised cosine.
	plain := DiurnalRate{NightRate: 500, PeakRate: 2000, PeriodSec: 86400, PeakAtSec: 43200, Sharpness: 1}
	if d.RateAt(43200-3*3600) >= plain.RateAt(43200-3*3600) {
		t.Fatal("sharpness should narrow the peak")
	}
	// Defaults: zero period means one day; sub-1 sharpness clamps to 1.
	def := DiurnalRate{NightRate: 100, PeakRate: 200, Sharpness: 0.2}
	if got := def.RateAt(86400); math.Abs(got-200) > 1e-9 {
		t.Fatalf("default period should peak at t=0 (mod day), got %v", got)
	}
}

// Property: diurnal rate stays within [min(night,peak), max(night,peak)]
// and is periodic.
func TestDiurnalBounds(t *testing.T) {
	d := DiurnalRate{NightRate: 400, PeakRate: 1800, PeriodSec: 3600, PeakAtSec: 900, Sharpness: 3}
	f := func(raw float64) bool {
		sec := math.Mod(math.Abs(raw), 1e6)
		v := d.RateAt(sec)
		if v < 400-1e-9 || v > 1800+1e-9 {
			return false
		}
		return math.Abs(d.RateAt(sec)-d.RateAt(sec+3600)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlashCrowdRate(t *testing.T) {
	f := FlashCrowdRate{BaseRate: 1000, PeakRate: 4000, StartSec: 600, RampSec: 120, HoldSec: 300, DecayTauSec: 200}
	cases := []struct{ sec, want float64 }{
		{0, 1000},    // before the event
		{600, 1000},  // ramp start
		{660, 2500},  // mid-ramp
		{720, 4000},  // plateau begins
		{1000, 4000}, // still holding
	}
	for _, c := range cases {
		if got := f.RateAt(c.sec); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("RateAt(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
	// One decay constant past the plateau: base + (peak-base)/e.
	want := 1000 + 3000*math.Exp(-1)
	if got := f.RateAt(1220); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RateAt(plateau+tau) = %v, want %v", got, want)
	}
	// The decay is monotone back toward (but never below) the base.
	prev := f.RateAt(1020)
	for sec := 1120.0; sec < 5000; sec += 100 {
		v := f.RateAt(sec)
		if v > prev+1e-9 || v < 1000-1e-9 {
			t.Fatalf("decay not monotone toward base at t=%v: %v after %v", sec, v, prev)
		}
		prev = v
	}
}

func TestSawtoothRate(t *testing.T) {
	s := SawtoothRate{MinRate: 1000, MaxRate: 2000, PeriodSec: 600}
	if got := s.RateAt(0); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("RateAt(0) = %v, want min", got)
	}
	if got := s.RateAt(300); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("RateAt(half) = %v, want 1500", got)
	}
	// The reset is abrupt: just before the period the rate is near max,
	// at the period it is back at min.
	if got := s.RateAt(599.9); got < 1999 {
		t.Fatalf("RateAt(599.9) = %v, want ~2000", got)
	}
	if got := s.RateAt(600); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("RateAt(period) = %v, want min again", got)
	}
	// Degenerate period holds the min.
	if (SawtoothRate{MinRate: 7, MaxRate: 9}).RateAt(123) != 7 {
		t.Fatal("zero period should hold MinRate")
	}
}

// Property: sawtooth stays within [min, max] and is periodic.
func TestSawtoothBounds(t *testing.T) {
	s := SawtoothRate{MinRate: 800, MaxRate: 2400, PeriodSec: 450, PhaseSec: 100}
	f := func(raw float64) bool {
		sec := math.Mod(math.Abs(raw), 1e6)
		v := s.RateAt(sec)
		if v < 800-1e-9 || v > 2400+1e-9 {
			return false
		}
		return math.Abs(s.RateAt(sec)-s.RateAt(sec+450)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// conserves produces for 300 s while consuming 900 records a second and
// reports whether the topic's lag is what was produced minus consumed.
func conserves(topic *Topic) bool {
	produced, consumed := 0.0, 0.0
	for sec := 0.0; sec < 300; sec++ {
		produced += topic.Produce(sec, 1)
		consumed += topic.Consume(900)
	}
	return math.Abs(produced-consumed-topic.Lag()) <= 1e-6
}

// Topics driven by the new schedules conserve flow like any other.
func TestTopicWithNewSchedules(t *testing.T) {
	schedules := map[string]RateSchedule{
		"diurnal":     DiurnalRate{NightRate: 500, PeakRate: 2000, PeriodSec: 120, Sharpness: 3},
		"flash-crowd": FlashCrowdRate{BaseRate: 800, PeakRate: 3000, StartSec: 60, RampSec: 30, HoldSec: 60, DecayTauSec: 60},
		"sawtooth":    SawtoothRate{MinRate: 600, MaxRate: 1800, PeriodSec: 90},
	}
	for name, sched := range schedules {
		topic, err := NewTopic(sched)
		if err != nil {
			t.Fatal(err)
		}
		if !conserves(topic) {
			t.Fatalf("%s: conservation violated", name)
		}
	}
}

func TestNoisyRate(t *testing.T) {
	n := NoisyRate{Base: ConstantRate(1000), Sigma: 0.05, Seed: 7}
	// Deterministic per (seed, second).
	if n.RateAt(10) != n.RateAt(10) {
		t.Fatal("jitter must be stable for a given time")
	}
	// Values stay positive and near the base.
	var sum float64
	const samples = 2000
	for i := 0; i < samples; i++ {
		v := n.RateAt(float64(i))
		if v <= 0 {
			t.Fatalf("non-positive rate %v", v)
		}
		sum += v
	}
	mean := sum / samples
	if math.Abs(mean-1000) > 30 {
		t.Fatalf("jittered mean = %v, want ~1000", mean)
	}
	// Zero sigma passes through.
	clean := NoisyRate{Base: ConstantRate(500)}
	if clean.RateAt(3) != 500 {
		t.Fatal("zero sigma should pass through")
	}
}

// A topic driven by a sinusoidal schedule conserves flow like any other.
func TestTopicWithSinusoid(t *testing.T) {
	topic, err := NewTopic(SinusoidalRate{Mean: 1000, Amplitude: 500, PeriodSec: 120})
	if err != nil {
		t.Fatal(err)
	}
	if !conserves(topic) {
		t.Fatal("conservation violated")
	}
}
