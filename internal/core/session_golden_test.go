package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSessionGolden replays seeded Algorithm 1 and Algorithm 2 planning
// sessions on the latency chain at 2000 rps — seeds 1–6, latency targets
// from unmeetable (1 ms) to loose (160 ms), so Algorithm 2 covers all
// three of its outcomes: met at the base, met or exhausted in the
// transfer loop, and the switch to Algorithm 1 after N_num real samples
// — and holds every session bit for bit: each trial's configuration with
// the Float64bits of its score and latency, each iteration's posterior
// and selection, the flags, and the final benefit model's mean at every
// trial. The engine's restart count is deliberately not pinned: how often
// a session rescales is not its outcome. A refactor of the planning
// session must leave this file untouched.
func TestSessionGolden(t *testing.T) {
	prev := trainModelAt(t, 1600)
	var b strings.Builder
	for seed := uint64(1); seed <= 6; seed++ {
		for _, lat := range []float64{1, 60, 90, 110, 125, 160} {
			for _, alg := range []string{"a1", "a2"} {
				e := engineAtRate(t, 2000, 40+seed)
				tr, err := OptimizeThroughput(e, ThroughputOptions{TargetRate: 2000})
				if err != nil {
					t.Fatal(err)
				}
				cfg := Algorithm1Config{TargetRate: 2000, TargetLatencyMS: lat, Seed: seed}
				label := fmt.Sprintf("%s s%d l%g", alg, seed, lat)
				var res *Algorithm1Result
				if alg == "a1" {
					res, err = RunAlgorithm1(e, tr.Base, cfg)
				} else {
					res, err = RunAlgorithm2(e, tr.Base, prev.Model, cfg)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				writeSession(&b, label, res)
			}
		}
	}
	path := filepath.Join("testdata", "session_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(b.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// writeSession appends one session's trials, iterations, outcome and
// final-model means to b, each line prefixed with label.
func writeSession(b *strings.Builder, label string, res *Algorithm1Result) {
	for i, tr := range res.Trials {
		fmt.Fprintf(b, "%s trial %d %v %016x %016x %v\n", label, i, tr.Par,
			math.Float64bits(tr.Score), math.Float64bits(tr.ProcLatencyMS), tr.LatencyMet)
	}
	n := 0
	for _, it := range res.Trials {
		if it.Phase != PhaseBO {
			continue
		}
		n++
		st := *it.Suggestion
		fmt.Fprintf(b, "%s iter %d %v %016x %016x %016x %s %s %v\n", label, n, it.Par,
			math.Float64bits(st.Mean), math.Float64bits(st.Std),
			math.Float64bits(st.AcqValue), st.Acquisition, st.Reason, res.Met && n == res.Iterations())
	}
	fmt.Fprintf(b, "%s end met=%v exhausted=%v iterations=%d bootstrap=%d estimated=%d switched=%v threshold=%016x best=%v\n",
		label, res.Met, res.Exhausted, res.Iterations(), res.BootstrapRuns(), res.EstimatedSamples, res.SwitchedToA1,
		math.Float64bits(res.Threshold), res.Best.Par)
	if res.Model == nil {
		fmt.Fprintf(b, "%s model none\n", label)
		return
	}
	for _, tr := range res.Trials {
		fmt.Fprintf(b, "%s model %v %016x\n", label, tr.Par, math.Float64bits(res.Model.PredictMean(tr.Par.Floats())))
	}
}
