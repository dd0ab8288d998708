package core

import (
	"testing"

	"autrascale/internal/kafka"
)

// A long-run integration test: the controller drives a job through a
// diurnal (sinusoidal) rate pattern for several simulated hours. It must
// (a) keep stepping without error, (b) accumulate models for the rate
// levels it visits, and (c) spend most steady-state windows within QoS.
func TestControllerDiurnalLongRun(t *testing.T) {
	sched := kafka.NoisyRate{
		Base:  kafka.SinusoidalRate{Mean: 1800, Amplitude: 500, PeriodSec: 14400},
		Sigma: 0.01,
		Seed:  5,
	}
	e := controllerEngine(t, sched)
	ctl, err := NewController(e, ControllerConfig{
		TargetLatencyMS: 170,
		MaxIterations:   8,
		Seed:            81,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctl.Run(4 * 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 10 {
		t.Fatalf("only %d events over 4 simulated hours", len(events))
	}
	// The rising and falling rate must have triggered several replans,
	// and after the first one they should be transfers.
	var plans, transfers int
	for _, ev := range events {
		switch ev.Action {
		case ActionAlgorithm1, ActionAlgorithm2:
			plans++
			if ev.Action == ActionAlgorithm2 {
				transfers++
			}
		}
	}
	if plans < 2 {
		t.Fatalf("diurnal rate should force multiple replans, got %d", plans)
	}
	if transfers == 0 {
		t.Fatal("later replans should reuse models via transfer")
	}
	if ctl.Library().Len() < 2 {
		t.Fatalf("library has %d models, want >= 2", ctl.Library().Len())
	}
	// Steady-state windows (ActionNone) should mostly hold QoS: allow a
	// minority of violations around the replanning boundaries.
	var steady, violated int
	for _, ev := range events {
		if ev.Action != ActionNone {
			continue
		}
		steady++
		if ev.ProcLatencyMS > 170 {
			violated++
		}
	}
	if steady == 0 {
		t.Fatal("no steady windows at all")
	}
	if violated*3 > steady {
		t.Fatalf("QoS violated in %d of %d steady windows", violated, steady)
	}

	// The accumulated library is persistable: every model survives a
	// refit from its training data.
	if loaded := refitLibrary(t, ctl.Library()); loaded.Len() != ctl.Library().Len() {
		t.Fatalf("library round trip lost models: %d vs %d", loaded.Len(), ctl.Library().Len())
	}
}
