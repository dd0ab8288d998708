package chaos

import (
	"testing"
)

// The reproducibility contract: the same profile + seed + query sequence
// yields identical fault decisions.
func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]bool, []float64, []float64) {
		in := New(Heavy(), 1234)
		var fails []bool
		var delays, factors []float64
		for i := 0; i < 200; i++ {
			fails = append(fails, in.FailRescale())
			delays = append(delays, in.RescaleDelaySec())
			_, f := in.WindowFault()
			factors = append(factors, f)
		}
		return fails, delays, factors
	}
	f1, d1, c1 := run()
	f2, d2, c2 := run()
	for i := range f1 {
		if f1[i] != f2[i] || d1[i] != d2[i] || c1[i] != c2[i] {
			t.Fatalf("decision %d diverged between identical runs", i)
		}
	}
}

func TestInjectorSeedChangesDecisions(t *testing.T) {
	a, b := New(Heavy(), 1), New(Heavy(), 2)
	same := true
	for i := 0; i < 100; i++ {
		if a.FailRescale() != b.FailRescale() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different fault streams")
	}
}

// The nil injector is fully disabled: no faults, no panics.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector should be disabled")
	}
	if in.FailRescale() || in.RescaleDelaySec() != 0 {
		t.Fatal("nil injector should inject nothing")
	}
	if drop, f := in.WindowFault(); drop || f != 1 {
		t.Fatal("nil injector should leave windows intact")
	}
	if in.StallFraction(100) != 0 || in.DueMachineEvents(1e9) != nil {
		t.Fatal("nil injector should schedule nothing")
	}
}

// Disabled fault classes must not consume randomness, so enabling one
// class never perturbs another class's decision stream.
func TestDisabledClassesDoNotDrawRandomness(t *testing.T) {
	only := Profile{RescaleFailProb: 0.5}
	with := Profile{RescaleFailProb: 0.5, Stalls: []StallWindow{{FromSec: 0, ToSec: 10, Fraction: 0.5}},
		MachineEvents: []MachineEvent{{AtSec: 5, Down: true}}}
	a, b := New(only, 7), New(with, 7)
	for i := 0; i < 100; i++ {
		// Scheduled faults (stalls, machine events) are time-driven, not
		// random — interleaving their queries must not shift the stream.
		b.StallFraction(float64(i))
		b.DueMachineEvents(float64(i) / 10)
		if a.FailRescale() != b.FailRescale() {
			t.Fatalf("decision %d shifted when scheduled faults were added", i)
		}
	}
}

func TestDueMachineEventsSortedAndConsumed(t *testing.T) {
	in := New(Profile{MachineEvents: []MachineEvent{
		{AtSec: 300, Machine: "c", Down: false},
		{AtSec: 100, Machine: "a", Down: true},
		{AtSec: 200, Machine: "b", Down: true},
	}}, 1)
	if got := in.DueMachineEvents(50); len(got) != 0 {
		t.Fatalf("no event is due at t=50, got %v", got)
	}
	got := in.DueMachineEvents(250)
	if len(got) != 2 || got[0].Machine != "a" || got[1].Machine != "b" {
		t.Fatalf("events must arrive time-sorted: %v", got)
	}
	if again := in.DueMachineEvents(250); len(again) != 0 {
		t.Fatalf("events must be handed out once, got %v again", again)
	}
	if rest := in.DueMachineEvents(1000); len(rest) != 1 || rest[0].Machine != "c" {
		t.Fatalf("remaining event lost: %v", rest)
	}
}

func TestStallFraction(t *testing.T) {
	in := New(Profile{Stalls: []StallWindow{
		{FromSec: 100, ToSec: 200, Fraction: 0.3},
		{FromSec: 150, ToSec: 250, Fraction: 0.6},
	}}, 1)
	cases := []struct {
		t    float64
		want float64
	}{{50, 0}, {100, 0.3}, {160, 0.6}, {220, 0.6}, {250, 0}}
	for _, c := range cases {
		if got := in.StallFraction(c.t); got != c.want {
			t.Fatalf("StallFraction(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "light", "heavy", ""} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("cataclysm"); err == nil {
		t.Fatal("unknown profile should error")
	}
	if None().Enabled() {
		t.Fatal("the none profile must inject nothing")
	}
	if !Light().Enabled() || !Heavy().Enabled() {
		t.Fatal("light/heavy profiles must inject")
	}
}
