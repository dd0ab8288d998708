package main

import (
	"os"
	"path/filepath"
	"testing"
)

func runsOf(values ...float64) metricSummary {
	return metricSummary{Unit: "s", spread: summarize(values), Values: values}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "speed", Unit: "x", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b metricSummary
		m    metricSpec
		want verdict
	}{
		{"steady runs, 20% slower", runsOf(10, 10.1, 9.9, 10, 10.05), runsOf(12, 12.1, 11.9, 12, 12.05), lower, verdictWorse},
		{"steady runs, 5% slower: inside the bound", runsOf(10, 10.1, 9.9, 10, 10.05), runsOf(10.5, 10.6, 10.4, 10.5, 10.55), lower, verdictSame},
		{"steady runs, 5% faster: beyond a's spread", runsOf(10, 10.1, 9.9, 10, 10.05), runsOf(9.5, 9.6, 9.4, 9.5, 9.55), lower, verdictBetter},
		{"noisy parent cannot resolve a 10% shift", runsOf(8, 10, 12, 9, 11), runsOf(9, 11, 13, 10, 12), lower, verdictUnresolved},
		{"noisy parent, yet every run of b beats every run of a", runsOf(8, 10, 12, 9, 11), runsOf(5, 6, 7, 5.5, 6.5), lower, verdictBetter},
		{"single runs: a 5% gain is not a gain", runsOf(10), runsOf(9.5), lower, verdictSame},
		{"single runs: 20% worse", runsOf(10), runsOf(12), lower, verdictWorse},
		{"higher is better: a drop is worse", runsOf(2, 2.01, 1.99, 2, 2), runsOf(1.5, 1.51, 1.49, 1.5, 1.5), higher, verdictWorse},
		{"no base to compare against", runsOf(0), runsOf(1), lower, verdictUnresolved},
	} {
		if got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall ...float64) string {
		row := workloadLedger{Digest: "d", EndToEnd: map[string]metricSummary{"wall_s": runsOf(wall...)}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, ledger{Workloads: map[string]workloadLedger{wPlanStorm: row}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 10, 10.1, 9.9)
	if code := compareMain([]string{a, write("same.json", 10.2, 10.1, 10.3)}); code != 0 {
		t.Errorf("a 2%% shift exits %d, want 0", code)
	}
	if code := compareMain([]string{a, write("worse.json", 14, 14.1, 13.9)}); code != 1 {
		t.Errorf("a 40%% regression exits %d, want 1", code)
	}
	if code := compareMain([]string{a}); code != 2 {
		t.Errorf("a missing argument exits %d, want 2", code)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, filepath.Join(dir, "junk.json")}); code != 2 {
		t.Errorf("an unreadable ledger exits %d, want 2", code)
	}
}
