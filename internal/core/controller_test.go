package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/slo"
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
	topic, err := kafka.NewTopic(sched)
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
	// Run's events are one per step, in time order: the events a twin
	// controller's Steps return up to the same clock.
	twinEngine := controllerEngine(t, kafka.ConstantRate(1500))
	twin, err := NewController(twinEngine, ControllerConfig{TargetLatencyMS: 160, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var stepped []Event
	for twinEngine.Now() < 600 {
		ev, err := twin.Step()
		if err != nil {
			t.Fatal(err)
		}
		stepped = append(stepped, ev)
	}
	if !reflect.DeepEqual(events, stepped) {
		t.Fatalf("Run returned %d events, Step returned %d", len(events), len(stepped))
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].TimeSec >= events[i].TimeSec {
			t.Fatalf("events out of time order: %v >= %v", events[i-1].TimeSec, events[i].TimeSec)
		}
	}
	// A second Run returns only its own steps.
	more, err := ctl.Run(e.Now() + 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) == 0 || more[0].TimeSec <= events[len(events)-1].TimeSec {
		t.Fatalf("second Run returned %d events starting before the first Run ended", len(more))
	}
}

// A controller keeps no step history: a fleet soak steps controllers for
// days of simulated time, and anything retained per step would leak.
// Steady steps at a healthy rate must leave the live heap where it was.
// The window is 400 steps, so even a per-step log bounded at 512 entries
// fails it.
//
// The window runs on one P. With two, a runtime.GC that wakes the idle P
// while the machine is busy can start an OS thread, and the runtime keeps
// that thread's m and g structs (~5.2 KB) on the Go heap for good: the
// window then grew by 5.2-5.6 KB exactly when the thread count went up.
func TestControllerStepRetainsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ctl.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	step(50) // plan, settle and reach steady state
	before := heap()
	step(400)
	after := heap()
	runtime.KeepAlive(ctl)
	if after > before && after-before >= 4<<10 {
		t.Fatalf("400 steady steps grew the live heap by %d B, want < 4 KiB", after-before)
	}
}

// A step that plans nothing allocates nothing: its monitor window is a
// summary returned by value, and its event's Par is the controller's own
// vector. The controller is built as TestControllerStepRetainsNothing
// builds its own, and is past its first plan.
func TestIdleStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	e := controllerEngine(t, kafka.ConstantRate(1500))
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // plan, settle and reach steady state
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		ev, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Action != ActionNone {
			t.Fatalf("a steady step planned: %s (%s)", ev.Action, ev.Reason)
		}
	})
	if got != 0 {
		t.Fatalf("idle Step: %v allocs, want 0", got)
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

// referenceQoSOK is the replan trigger's rule as the controller applied
// it before slo.Judge existed, kept as the reference the verdict must
// reproduce bit for bit.
func referenceQoSOK(targetLatencyMS float64, m flink.Measurement) bool {
	if m.ProcLatencyMS > targetLatencyMS {
		return false
	}
	if m.InputRateRPS > 0 && m.ThroughputRPS < m.InputRateRPS*0.95 && m.LagRecords > m.InputRateRPS {
		return false
	}
	return true
}

// The trigger's reading of the verdict, LatencyOK && ThroughputOK,
// agrees with the reference rule on every edge of its clauses and on
// seeded random windows around them.
func TestTriggerVerdictMatchesReference(t *testing.T) {
	up, down := math.Inf(1), math.Inf(-1)
	rng := rand.New(rand.NewPCG(56, 1))
	near := func(x float64) []float64 {
		return []float64{x, math.Nextafter(x, down), math.Nextafter(x, up), x * (0.5 + rng.Float64())}
	}
	for _, target := range []float64{180, 300, 500 * rng.Float64()} {
		for _, rate := range []float64{0, -1, 1000, 60000, 1e6 * rng.Float64()} {
			lats := append(near(target), math.NaN(), 0)
			thrs := append(near(0.95*rate), rate, 0)
			lags := append(near(1*rate), near(60*rate)...)
			lags = append(lags, 0)
			for _, lat := range lats {
				for _, thr := range thrs {
					for _, lag := range lags {
						m := flink.Measurement{ProcLatencyMS: lat, ThroughputRPS: thr, InputRateRPS: rate, LagRecords: lag}
						v := slo.Judge(target, lat, thr, rate, lag)
						if got, want := v.LatencyOK && v.ThroughputOK, referenceQoSOK(target, m); got != want {
							t.Errorf("target %v, window %+v: verdict %+v reads %v, reference %v", target, m, v, got, want)
						}
					}
				}
			}
		}
	}
}
