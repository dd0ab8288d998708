package core

import (
	"strings"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/transfer"
	"autrascale/internal/workloads"
)

func controllerEngine(t testing.TB, sched kafka.RateSchedule) *flink.Engine {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic("in", 4, sched)
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: c, Topic: topic,
		NoNoise: true, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, ControllerConfig{TargetLatencyMS: 100}); err == nil {
		t.Fatal("nil engine should error")
	}
	e := controllerEngine(t, kafka.ConstantRate(1000))
	if _, err := NewController(e, ControllerConfig{}); err == nil {
		t.Fatal("missing latency target should error")
	}
}

func TestControllerFirstStepPlans(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	// First observation of a rate: no model exists → throughput
	// optimization + Algorithm 1.
	if ev.Action != ActionAlgorithm1 {
		t.Fatalf("first action = %v, want algorithm1", ev.Action)
	}
	if ctl.Library().Len() != 1 {
		t.Fatalf("library should hold one model, has %d", ctl.Library().Len())
	}
	if ctl.Base() == nil {
		t.Fatal("controller lost the base configuration")
	}
	// Second step at a steady, healthy rate: no action.
	ev2, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Action != ActionNone {
		t.Fatalf("steady-state action = %v (%s), want none", ev2.Action, ev2.Reason)
	}
}

func TestControllerUsesTransferOnRateChange(t *testing.T) {
	// Rate steps from 1500 to 2000 after 1200 simulated seconds.
	sched := kafka.StepSchedule{Steps: []kafka.Step{{FromSec: 0, Rate: 1500}, {FromSec: 1200, Rate: 2000}}}
	e := controllerEngine(t, sched)
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step(); err != nil { // plans at 1500 (Algorithm 1)
		t.Fatal(err)
	}
	// Advance past the rate change.
	for e.Now() < 1250 {
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Action != ActionAlgorithm2 {
		t.Fatalf("rate-change action = %v (%s), want algorithm2", ev.Action, ev.Reason)
	}
	if ctl.Library().Len() != 2 {
		t.Fatalf("library should hold models for both rates, has %d", ctl.Library().Len())
	}
	// After transfer, the next steady step should be quiet and QoS held.
	ev2, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Action != ActionNone {
		t.Fatalf("post-transfer action = %v (%s)", ev2.Action, ev2.Reason)
	}
	if ev2.ProcLatencyMS > 160 {
		t.Fatalf("post-transfer latency %v exceeds target", ev2.ProcLatencyMS)
	}
}

func TestControllerRunUntil(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctl.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	if e.Now() < 600 {
		t.Fatalf("Run stopped early at %v", e.Now())
	}
	if len(ctl.Events()) != len(events) {
		t.Fatal("Events() should match Run output")
	}
}

// The event log must stay bounded: a fleet soak steps controllers for
// days of simulated time, and an unbounded append would leak memory.
func TestControllerEventHistoryBounded(t *testing.T) {
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	for i := 0; i < eventHistory+10; i++ {
		if last, err = ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	events := ctl.Events()
	if len(events) != eventHistory {
		t.Fatalf("event log holds %d entries, want the %d most recent", len(events), eventHistory)
	}
	if events[len(events)-1].TimeSec != last.TimeSec {
		t.Fatal("cap evicted the newest event instead of the oldest")
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].TimeSec >= events[i].TimeSec {
			t.Fatalf("events out of order after eviction: %v >= %v",
				events[i-1].TimeSec, events[i].TimeSec)
		}
	}
}

// refitLibrary rebuilds a library the way fleet.Restore does: every
// entry's training data refitted through transfer.Fit.
func refitLibrary(t *testing.T, lib *transfer.ModelLibrary) *transfer.ModelLibrary {
	t.Helper()
	out := transfer.NewModelLibrary()
	for _, e := range lib.Entries() {
		td, ok := e.Model.(transfer.TrainingData)
		if !ok {
			t.Fatalf("model at %v rps exposes no training data", e.RateRPS)
		}
		model, err := transfer.Fit(td.TrainingData())
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Put(e.RateRPS, model); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A restored library lets the very first rate-change planning use
// transfer learning instead of learning from scratch.
func TestControllerWithRestoredLibrary(t *testing.T) {
	// First life: plan at 1500.
	e1 := controllerEngine(t, kafka.ConstantRate(1500))
	c1, err := NewController(e1, ControllerConfig{TargetLatencyMS: 160, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Step(); err != nil {
		t.Fatal(err)
	}

	// Second life at a nearby rate, with the library restored from its
	// training data.
	restored := refitLibrary(t, c1.Library())
	e2 := controllerEngine(t, kafka.ConstantRate(1700))
	c2, err := NewController(e2, ControllerConfig{TargetLatencyMS: 160, Seed: 92, Library: restored})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c2.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Action != ActionAlgorithm2 {
		t.Fatalf("restored library should enable transfer on first plan, got %v (%s)", ev.Action, ev.Reason)
	}
}

// A job whose rate saturates the cluster has a search space smaller than
// the iteration budget (WordCount at 100× its default rate: base
// (60, 60, 60, 48) under P_max 60 is 13 points against 25 iterations).
// Running out of configurations ends the search on the best trial; it
// must not fail the step, which would quarantine the job forever.
func TestControllerPlansInExhaustedSpace(t *testing.T) {
	spec := workloads.WordCount()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: kafka.ConstantRate(100 * spec.DefaultRateRPS), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: spec.TargetLatencyMS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ctl.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	reports := ctl.Decisions()
	if len(reports) == 0 {
		t.Fatal("no decision recorded")
	}
	first := reports[0]
	if first.Action != ActionAlgorithm1 || !first.Exhausted || first.Met || first.Chosen == nil {
		t.Fatalf("first decision = %+v, want an Algorithm 1 plan ended by space exhaustion", first)
	}
	if !strings.Contains(first.Explain(), "space-exhausted") {
		t.Fatalf("Explain does not name the termination:\n%s", first.Explain())
	}
}
