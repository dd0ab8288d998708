package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

func twoMachines(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{
		Machines: []Machine{
			{Name: "m1", Cores: 4},
			{Name: "m2", Cores: 8},
		},
		InterferenceGamma: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for no machines")
	}
	if _, err := New(Config{Machines: []Machine{{Name: "x", Cores: 0}}}); err == nil {
		t.Fatal("expected error for zero cores")
	}
	if _, err := New(Config{Machines: []Machine{{Name: "x", Cores: 1}}, InterferenceGamma: -1}); err == nil {
		t.Fatal("expected error for negative gamma")
	}
	if _, err := New(Config{Machines: []Machine{{Name: "x", Cores: 1}}, BackgroundLoad: 1}); err == nil {
		t.Fatal("expected error for BackgroundLoad >= 1")
	}
}

func TestDefaults(t *testing.T) {
	c, err := New(Config{Machines: []Machine{{Name: "x", Cores: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.InterferenceGamma != 1 {
		t.Fatalf("default gamma = %v", c.InterferenceGamma)
	}
}

func TestTotals(t *testing.T) {
	c := twoMachines(t)
	if n := len(c.UpMachineNames()); n != 2 {
		t.Fatalf("%d machines up, want 2", n)
	}
	if c.TotalCores() != 12 {
		t.Fatalf("TotalCores = %d", c.TotalCores())
	}
	if c.MaxParallelism() != 12 {
		t.Fatalf("MaxParallelism = %d", c.MaxParallelism())
	}
	if c.EffectiveCores() != 12 {
		t.Fatalf("EffectiveCores = %v", c.EffectiveCores())
	}
	if names := c.UpMachineNames(); len(names) != 2 || names[0] != "m1" || names[1] != "m2" {
		t.Fatalf("UpMachineNames = %v, want [m1 m2]", names)
	}
}

func TestPaperTestbed(t *testing.T) {
	c := PaperTestbed()
	if c.TotalCores() != 60 {
		t.Fatalf("paper testbed cores = %d, want 60", c.TotalCores())
	}
	if n := len(c.UpMachineNames()); n != 3 {
		t.Fatalf("paper testbed machines = %d", n)
	}
}

func TestInterferenceFactor(t *testing.T) {
	c := twoMachines(t)
	if f := c.InterferenceFactor(6); f != 1 {
		t.Fatalf("under capacity: factor = %v, want 1", f)
	}
	if f := c.InterferenceFactor(0); f != 1 {
		t.Fatalf("zero demand: factor = %v", f)
	}
	f := c.InterferenceFactor(24) // 2x oversubscribed
	if math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("2x oversubscription factor = %v, want 0.5", f)
	}
}

// Property: interference factor is in (0, 1] and non-increasing in demand.
func TestInterferenceMonotone(t *testing.T) {
	c := twoMachines(t)
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		d1 := r.Float64() * 50
		d2 := d1 + r.Float64()*50
		f1, f2 := c.InterferenceFactor(d1), c.InterferenceFactor(d2)
		return f1 > 0 && f1 <= 1 && f2 <= f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMachineFailure(t *testing.T) {
	c := twoMachines(t) // 4 + 8 cores
	if len(c.DownMachineNames()) != 0 {
		t.Fatal("fresh machines should be up")
	}
	if err := c.SetMachineDown("m1", true); err != nil {
		t.Fatal(err)
	}
	if down := c.DownMachineNames(); len(down) != 1 || down[0] != "m1" {
		t.Fatalf("down machines = %v, want [m1]", down)
	}
	if c.UpCores() != 8 {
		t.Fatalf("UpCores = %d, want 8", c.UpCores())
	}
	if c.EffectiveCores() != 8 {
		t.Fatalf("EffectiveCores = %v", c.EffectiveCores())
	}
	// The up-core count is cached: repeating a transition must not count
	// the machine twice.
	if err := c.SetMachineDown("m1", true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMachineDown("m2", false); err != nil {
		t.Fatal(err)
	}
	if c.UpCores() != 8 {
		t.Fatalf("UpCores after repeated transitions = %d, want 8", c.UpCores())
	}
	// TotalCores and MaxParallelism stay stable (slots fail over).
	if c.TotalCores() != 12 || c.MaxParallelism() != 12 {
		t.Fatal("static totals must not change")
	}
	// Interference now engages at lower demand.
	if f := c.InterferenceFactor(10); f >= 1 {
		t.Fatalf("10 cores of demand on 8 up cores should interfere: %v", f)
	}
	// Cannot fail the last machine.
	if err := c.SetMachineDown("m2", true); err == nil {
		t.Fatal("failing the last machine should error")
	}
	if err := c.SetMachineDown("m1", false); err != nil {
		t.Fatal(err)
	}
	if c.UpCores() != 12 {
		t.Fatal("recovery failed")
	}
	if err := c.SetMachineDown("ghost", true); err == nil {
		t.Fatal("unknown machine should error")
	}
	if down := c.DownMachineNames(); len(down) != 0 {
		t.Fatalf("down machines = %v after recovery and an unknown name", down)
	}
}
