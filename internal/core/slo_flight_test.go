package core

import (
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/slo"
	"autrascale/internal/trace"
)

// The SLO tracker rides the same observation path as the violations
// counter: one Observe per Step, no extra walks.
func TestControllerSLOHealth(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := ctl.SLOHealth()
	if h.Observations != 0 || h.State != slo.StateHealthy {
		t.Fatalf("pre-step health = %+v, want unobserved healthy", h)
	}
	for i := 0; i < 5; i++ {
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	h = ctl.SLOHealth()
	if h.Observations != 5 {
		t.Fatalf("observations = %d, want 5 (one per step)", h.Observations)
	}
	if h.LastSec <= 0 {
		t.Fatalf("LastSec = %v, want simulated time of last step", h.LastSec)
	}
}

// An impossible latency target makes every window violate: the burn
// rate must saturate and the state go to burning.
func TestControllerSLOBurnsUnderViolation(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{
		TargetLatencyMS: 0.001, // unattainable
		Seed:            5,
		MaxIterations:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	h := ctl.SLOHealth()
	if h.State != slo.StateBurning {
		t.Fatalf("state = %s after 60 violating windows, want burning (%+v)", h.State, h)
	}
}

// A controller step journals a correlated causal chain into the flight
// recorder: the decision record plus its BO iterations, all stamped
// with the mape.step span's id.
func TestControllerFlightChain(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic(kafka.ConstantRate(1500))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(256)
	fl := trace.NewFlightRecorder(256)
	tr.AttachFlight(fl)
	e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: c, Topic: topic,
		NoNoise: true, Seed: 71, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	recs := fl.Snapshot(0)
	var decisions, iters, rescales int
	var corr uint64
	for _, r := range recs {
		switch r.Kind {
		case "decision":
			decisions++
			corr = r.Corr
			if r.Attrs["action"] != string(ActionAlgorithm1) {
				t.Fatalf("decision action = %v, want algorithm1", r.Attrs["action"])
			}
		case "bo.iteration":
			iters++
		case "rescale":
			rescales++
		}
	}
	if decisions != 1 {
		t.Fatalf("journal has %d decision records, want 1 (records: %+v)", decisions, recs)
	}
	if iters == 0 {
		t.Fatal("no bo.iteration records journaled")
	}
	if rescales == 0 {
		t.Fatal("no rescale records journaled (the planning session reconfigures)")
	}
	if corr == 0 {
		t.Fatal("decision record has no correlation id")
	}
	// Every record of the step shares the step's correlation id.
	for _, r := range recs {
		if r.Corr != corr {
			t.Fatalf("record %+v has corr %d, want %d (one causal chain)", r, r.Corr, corr)
		}
	}
}
