package flink

import (
	"errors"
	"strings"
	"testing"

	"autrascale/internal/chaos"
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/trace"
)

func chaosEngine(t testing.TB, profile chaos.Profile, seed uint64, cfg func(*Config)) (*Engine, *metrics.Store) {
	t.Helper()
	topic, err := kafka.NewTopic("in", 8, kafka.ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	store := metrics.NewStore()
	c := Config{
		Graph:   testGraph(t),
		Cluster: testCluster(t),
		Topic:   topic,
		Store:   store,
		NoNoise: true,
		Seed:    seed,
		Chaos:   chaos.New(profile, seed),
	}
	if cfg != nil {
		cfg(&c)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

// A rescale that keeps failing must retry with backoff (burning
// simulated time, counting retries) and eventually give up with
// ErrRescaleFailed, leaving the configuration unchanged.
func TestRescaleRetriesThenFails(t *testing.T) {
	tr := trace.New(64)
	e, store := chaosEngine(t, chaos.Profile{RescaleFailProb: 1}, 5, func(c *Config) {
		c.Tracer = tr
		c.RescaleMaxAttempts = 3
		c.RescaleBackoffSec = 4
	})
	before := e.Parallelism()
	t0 := e.Now()
	err := e.SetParallelism(dataflow.ParallelismVector{2, 3, 2})
	if !errors.Is(err, ErrRescaleFailed) {
		t.Fatalf("want ErrRescaleFailed, got %v", err)
	}
	if !e.Parallelism().Equal(before) {
		t.Fatalf("failed rescale must keep the last-known-good configuration, got %v", e.Parallelism())
	}
	if e.Restarts() != 0 {
		t.Fatalf("failed rescale must not restart the job, restarts=%d", e.Restarts())
	}
	// 3 attempts → 2 backoffs (4s + 8s) of simulated time.
	if got := e.Now() - t0; got != 12 {
		t.Fatalf("backoff should burn 12 simulated seconds, burned %v", got)
	}
	if got := store.Counter("rescale_retries", map[string]string{"job": "test-job"}).Value(); got != 3 {
		t.Fatalf("rescale_retries = %v, want 3 (one per failed attempt)", got)
	}
	attempts := 0
	for _, sp := range tr.Snapshot(0) {
		if sp.Name == "flink.rescale_attempt" {
			attempts++
		}
	}
	if attempts != 3 {
		t.Fatalf("want 3 rescale_attempt spans, got %d", attempts)
	}
}

// The deadline bounds total retry time even when the attempt budget
// would allow more retries.
func TestRescaleDeadlineBoundsRetries(t *testing.T) {
	e, _ := chaosEngine(t, chaos.Profile{RescaleFailProb: 1}, 5, func(c *Config) {
		c.RescaleMaxAttempts = 100
		c.RescaleBackoffSec = 10
		c.RescaleDeadlineSec = 35
	})
	t0 := e.Now()
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 3, 2}); !errors.Is(err, ErrRescaleFailed) {
		t.Fatalf("want ErrRescaleFailed, got %v", err)
	}
	if burned := e.Now() - t0; burned > 35 {
		t.Fatalf("retry loop overran its deadline: burned %v sim-seconds", burned)
	}
}

// With a moderate failure rate the retry loop should eventually
// succeed, and the successful rescale behaves like a normal one.
func TestRescaleRetriesThenSucceeds(t *testing.T) {
	e, store := chaosEngine(t, chaos.Profile{RescaleFailProb: 0.5}, 3, nil)
	want := dataflow.ParallelismVector{2, 3, 2}
	ok := false
	for i := 0; i < 20 && !ok; i++ {
		p := want.Clone()
		p[1] = 3 + i%2
		if err := e.SetParallelism(p); err == nil {
			ok = true
		} else if !errors.Is(err, ErrRescaleFailed) {
			t.Fatal(err)
		}
	}
	if !ok {
		t.Fatal("no rescale succeeded in 20 tries at 50% failure rate")
	}
	if e.Restarts() == 0 {
		t.Fatal("successful rescale should restart the job")
	}
	if store.Counter("flink.rescales", map[string]string{"job": "test-job"}).Value() == 0 {
		t.Fatal("successful rescales should be counted")
	}
}

// Scheduled machine kills fire at their simulated time, pick the sorted
// first up machine when none is named, and never kill the last machine.
func TestScheduledMachineKillDeterministicVictim(t *testing.T) {
	profile := chaos.Profile{MachineEvents: []chaos.MachineEvent{
		{AtSec: 10, Down: true},  // victim: m1 (sorted first)
		{AtSec: 20, Down: true},  // refused: m2 is the last machine standing
		{AtSec: 30, Down: false}, // recovers m1
	}}
	e, _ := chaosEngine(t, profile, 9, nil)
	down := func() string { return strings.Join(e.Cluster().DownMachineNames(), ",") }
	e.Run(15)
	if down() != "m1" {
		t.Fatalf("down = [%s]: victim selection must pick m1 alone, the first up machine in sorted order", down())
	}
	e.Run(10)
	if down() != "m1" {
		t.Fatalf("down = [%s]: the last machine must never be killed", down())
	}
	e.Run(10)
	if down() != "" {
		t.Fatalf("down = [%s]: scheduled recovery must bring m1 back", down())
	}
}

// A partition stall throttles consumption (lag grows) and clears when
// the window ends.
func TestPartitionStallThrottlesConsumption(t *testing.T) {
	profile := chaos.Profile{Stalls: []chaos.StallWindow{{FromSec: 100, ToSec: 200, Fraction: 0.9}}}
	e, _ := chaosEngine(t, profile, 11, nil)
	if err := e.SetParallelism(dataflow.ParallelismVector{2, 3, 2}); err != nil {
		t.Fatal(err)
	}
	e.Run(95) // steady state before the stall
	lagBefore := e.Topic().Lag()
	e.Run(80) // inside the stall window
	lagDuring := e.Topic().Lag()
	if lagDuring <= lagBefore {
		t.Fatalf("stalled partitions should grow lag: before %v, during %v", lagBefore, lagDuring)
	}
	e.Run(300) // stall cleared; 2200 rps of capacity drains the backlog
	if lagAfter := e.Topic().Lag(); lagAfter >= lagDuring {
		t.Fatalf("lag should drain after the stall clears: during %v, after %v", lagDuring, lagAfter)
	}
}

// Dropped measurement ticks shrink the window but never corrupt the
// aggregates into negatives or NaNs.
func TestWindowDropShrinksMeasurement(t *testing.T) {
	e, _ := chaosEngine(t, chaos.Profile{WindowDropProb: 0.5}, 13, nil)
	e.ResetWindow()
	e.Run(200)
	m := e.Measure()
	if m.WindowSec >= 200 || m.WindowSec <= 0 {
		t.Fatalf("≈half the ticks should be dropped, window = %v", m.WindowSec)
	}
	if m.ThroughputRPS < 0 || m.ProcLatencyMS < 0 {
		t.Fatalf("dropped ticks must not corrupt aggregates: %+v", m)
	}
}

// The same seed must reproduce the identical engine trajectory under
// chaos — the core reproducibility contract.
func TestChaosEngineDeterministic(t *testing.T) {
	run := func() []float64 {
		e, _ := chaosEngine(t, chaos.Heavy(), 42, nil)
		var trail []float64
		for i := 0; i < 50; i++ {
			e.Run(30)
			m := e.Measure()
			trail = append(trail, m.ThroughputRPS, m.ProcLatencyMS, e.Topic().Lag())
		}
		return trail
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}
