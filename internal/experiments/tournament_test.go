package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autrascale/internal/policy"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// smallGrid is the fast fixture the determinism and golden tests share:
// three contenders, two schedules, two chaos profiles, a half-hour
// horizon.
func smallGrid(seed uint64, workers int) TournamentOptions {
	return TournamentOptions{
		Seed:        seed,
		Policies:    []string{"bo", "ds2-online", "drs-true"},
		Schedules:   []string{"step", "flash-crowd"},
		Chaos:       []string{"none", "light"},
		DurationSec: 1800,
		Workers:     workers,
	}
}

func TestTournamentValidation(t *testing.T) {
	if _, err := RunTournament(TournamentOptions{Workload: "no-such"}); err == nil {
		t.Fatal("unknown workload should error")
	}
	_, want := policy.Lookup("no-such")
	if _, err := RunTournament(TournamentOptions{Policies: []string{"no-such"}}); err == nil || err.Error() != want.Error() {
		t.Fatalf("unknown policy: err = %v, want the registry's %q", err, want)
	}
	if _, err := RunTournament(TournamentOptions{Schedules: []string{"no-such"}}); err == nil {
		t.Fatal("unknown schedule should error")
	}
	if _, err := RunTournament(TournamentOptions{Chaos: []string{"no-such"}}); err == nil {
		t.Fatal("unknown chaos profile should error")
	}
}

// The tournament's determinism contract: the ranked table is a pure
// function of (seed, grid) — worker count must not move a single cell,
// because every cell derives its randomness from its own coordinates and
// lands at a fixed grid index.
func TestTournamentDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunTournament(smallGrid(42, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTournament(smallGrid(42, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("same-seed tournaments diverged across worker counts:\n serial   %s\n parallel %s",
			serial.Summary(), parallel.Summary())
	}
	// And a different seed must actually reroll the cells — the grid is
	// seeded, not frozen.
	other, err := RunTournament(smallGrid(43, 4))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(serial.Cells, other.Cells) {
		t.Fatal("different seeds produced identical grids — cell seeding is broken")
	}
	for _, c := range serial.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s/%s failed: %s", c.Policy, c.Schedule, c.Chaos, c.Err)
		}
		if c.Steps == 0 {
			t.Fatalf("cell %s/%s/%s observed no steps", c.Policy, c.Schedule, c.Chaos)
		}
	}
	if n := len(serial.Standings); n != 3 {
		t.Fatalf("standings cover %d policies, want 3", n)
	}
	for i, s := range serial.Standings {
		if s.Rank != i+1 {
			t.Fatalf("standing %d has rank %d", i, s.Rank)
		}
		if s.Cells != 4 {
			t.Fatalf("policy %s aggregated %d cells, want 4", s.Policy, s.Cells)
		}
	}
}

// The tournament golden: the small grid's ranked summary is pinned under
// testdata, so a behavior change in any policy, schedule, chaos profile,
// or the controller itself shows up as a readable diff. Bless intentional
// changes with `go test ./internal/experiments -run TournamentGolden -update`.
func TestTournamentGoldenSummary(t *testing.T) {
	res, err := RunTournament(smallGrid(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Summary()

	path := filepath.Join("testdata", "tournament_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden summary rewritten: %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(blob) {
		t.Fatalf("tournament summary drifted from golden (bless with -update if intentional):\n got:\n%s\n want:\n%s",
			got, string(blob))
	}
}

// Summary renders the compact, formatting-stable digest the tournament
// golden (TestTournamentGoldenSummary) pins: the ranked policy order plus
// integer-ish per-policy aggregates.
func (r *TournamentResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s seed=%d duration=%.0f cells=%d\n",
		r.Workload, r.Seed, r.DurationSec, len(r.Cells))
	for _, st := range r.Standings {
		fmt.Fprintf(&b, "%d. %s cells=%d fail=%d viol=%d lag=%.0f rescales=%d cores=%.0f\n",
			st.Rank, st.Policy, st.Cells, st.Failures, st.Violations,
			st.LagIntegral, st.Rescales, st.CoreSec)
	}
	return b.String()
}
