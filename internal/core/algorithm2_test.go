package core

import (
	"encoding/json"
	"strings"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
)

// engineAtRate builds a latencyChain engine at the given input rate.
func engineAtRate(t testing.TB, rate float64, seed uint64) *flink.Engine {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
		{Name: "m1", Cores: 32}, {Name: "m2", Cores: 32},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := flink.New(flink.Config{Graph: latencyChain(t), Cluster: c, Topic: topic,
		NoNoise: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// trainModelAt runs throughput optimization + Algorithm 1 at a rate and
// returns the fitted benefit model.
func trainModelAt(t testing.TB, rate float64) *Algorithm1Result {
	t.Helper()
	e := engineAtRate(t, rate, 31)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm1(e, tr.Base, Algorithm1Config{
		TargetRate: rate, TargetLatencyMS: 160, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil {
		t.Fatal("no model from Algorithm 1")
	}
	return res
}

func TestRunAlgorithm2RequiresModel(t *testing.T) {
	e := engineAtRate(t, 2000, 1)
	if _, err := RunAlgorithm2(e, e.Parallelism(), nil, Algorithm1Config{TargetRate: 2000, TargetLatencyMS: 100}); err == nil {
		t.Fatal("nil previous model should error")
	}
}

func TestRunAlgorithm2TransfersToNewRate(t *testing.T) {
	// Train at 1600 rps, transfer to 2000 rps.
	prev := trainModelAt(t, 1600)

	e := engineAtRate(t, 2000, 41)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm2(e, tr.Base, prev.Model, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 160, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The transfer saving: estimated samples replace bootstrap runs, so
	// real runs must be well below (bootstrap set size + BO iterations)
	// that Algorithm 1 from scratch would need.
	a1Runs := prev.BootstrapRuns() + prev.Iterations()
	if len(res.Trials) >= a1Runs {
		t.Fatalf("transfer ran %d real configs, from-scratch ran %d — no saving", len(res.Trials), a1Runs)
	}
	if res.EstimatedSamples == 0 && !res.Best.LatencyMet {
		t.Fatal("no estimated samples were used and QoS not met")
	}
	if res.Best.Par == nil {
		t.Fatal("no best configuration")
	}
	if !res.Best.LatencyMet {
		t.Fatalf("transfer result misses latency: %+v", res.Best)
	}
	if res.Best.ThroughputRPS < 2000*0.97 {
		t.Fatalf("transfer result misses throughput: %v", res.Best.ThroughputRPS)
	}
}

// A transfer decision counts its real runs once, as trials: Planned
// counts the session's windows off the plan's log, the JSON carries
// "trials" alone and -explain prints the same count.
func TestTransferReportCountsTrialsOnce(t *testing.T) {
	log := []Trial{{Phase: PhaseEq3}, {Phase: PhaseSeed}, {Phase: PhaseBO}, {Phase: PhaseBO}}
	rep := Planned(nil, DecisionReport{Action: ActionAlgorithm2, TransferSourceRate: 1600}, log).Report
	if rep.Trials != 3 || rep.Windows != 4 {
		t.Fatalf("report trials = %d, windows = %d; the plan measured 4, the session 3", rep.Trials, rep.Windows)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(js, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["real_runs"]; ok || fields["trials"] != 3.0 {
		t.Fatalf("report JSON does not count its trials once: %s", js)
	}
	if want := "3 real run(s)"; !strings.Contains(rep.Explain(), want) {
		t.Fatalf("Explain lacks %q:\n%s", want, rep.Explain())
	}
}

func TestRunAlgorithm2SwitchesToA1AfterNNum(t *testing.T) {
	prev := trainModelAt(t, 1600)
	e := engineAtRate(t, 2000, 43)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Impossible latency target forces the loop to exhaust N_num (the
	// bootstrap set's size) and switch to plain Algorithm 1.
	cur, restarts := e.Parallelism(), e.Restarts()
	res, err := RunAlgorithm2(e, tr.Base, prev.Model, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SwitchedToA1 {
		t.Fatalf("expected switch to Algorithm 1 after N_num real samples: %+v", res)
	}
	if res.Met {
		t.Fatal("1 ms target cannot be met")
	}
	// One session, one final rescale: the engine restarts once per
	// configuration change along the trial sequence and once more for
	// the final pick, and for nothing else.
	want := 0
	for _, trial := range append(res.Trials, res.Best) {
		if !trial.Par.Equal(cur) {
			cur = trial.Par
			want++
		}
	}
	if got := e.Restarts() - restarts; got != want {
		t.Fatalf("switched session restarted the engine %d times, its trials and final pick need %d", got, want)
	}
}

func TestRunAlgorithm2ImmediateTermination(t *testing.T) {
	// A very loose latency target is met by the base configuration
	// itself: Algorithm 2 should terminate after the single seeding run.
	prev := trainModelAt(t, 1600)
	e := engineAtRate(t, 2000, 47)
	tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm2(e, tr.Base, prev.Model, Algorithm1Config{
		TargetRate: 2000, TargetLatencyMS: 5000, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("loose target should be met immediately: %+v", res.Best)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("ran %d trials, want 1 (just the base seeding run)", len(res.Trials))
	}
}
