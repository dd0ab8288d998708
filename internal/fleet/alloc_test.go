package fleet

import (
	"bytes"
	"runtime/debug"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/persist"
	"autrascale/internal/workloads"
)

// TestRestoreAllocations pins the allocations of Restore on a 1,000-job
// state captured from submitted jobs, before any round: per job, the
// spec, cluster, engine and controller a restore rebuilds, the engine on
// the workload's shared graph and its RNG held by value. That is 27 048
// allocations here, where a graph and an RNG allocated per job made
// 65 048. The ceiling is that count plus a
// little slack: growth fails tier-1, and a drop is a reason to tighten
// it.
func TestRestoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const jobs, runs, max = 1000, 3, 27_060
	f, err := New(Config{TotalCores: jobs * 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range StaggeredJobs(workloads.WordCount(), jobs, 0) {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if err := persist.Encode(&blob, f.PersistState()); err != nil {
		t.Fatal(err)
	}
	// One decoded state per run (AllocsPerRun runs once more to warm up),
	// decoded before measuring.
	states := make([]*persist.FleetState, runs+1)
	for i := range states {
		if states[i], err = persist.Decode(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(runs, func() {
		if _, err := Restore(states[next], RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("Restore of %d jobs: %v allocs (%.1f per job)", jobs, got, got/jobs)
	if got > max {
		t.Errorf("Restore of %d jobs: %v allocs, contract is <= %d", jobs, got, max)
	}
}

// A status page allocates the page and nothing per job: a /status or
// /api/v1/jobs read of a large fleet costs O(1) allocations.
func TestJobsPageAllocatesPerPageNotPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const jobs = 64
	f, err := New(Config{TotalCores: jobs * 32, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range StaggeredJobs(workloads.WordCount(), jobs, 0) {
		if err := f.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(600)
	got := testing.AllocsPerRun(20, func() {
		if page, total := f.JobsPage(0, 0); len(page) != jobs || total != jobs {
			t.Fatalf("JobsPage(0, 0) = %d of %d jobs, want %d", len(page), total, jobs)
		}
	})
	if got > 1 {
		t.Fatalf("JobsPage(0, 0) over %d jobs: %v allocs, want 1 (the page)", jobs, got)
	}
}

// A steady job's step allocates nothing on the fleet's side either: its
// last-event slot keeps one Par vector and copies each step's into it.
func TestIdleStepJobAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	f, err := New(Config{TotalCores: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	js := StaggeredJobs(workloads.WordCount(), 1, 0)[0]
	if err := f.Submit(js); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(7200) // past the job's first plan
	j := f.jobs[js.Name]
	got := testing.AllocsPerRun(50, func() {
		f.nowSec += 60 // one policy window
		if n := f.stepJob(j); n != 1 || j.err != nil {
			t.Fatalf("stepped %d times (%v), want one step", n, j.err)
		}
		if a := j.last[0].Action; a != core.ActionNone {
			t.Fatalf("a steady step planned: %s", a)
		}
	})
	if got != 0 {
		t.Fatalf("idle stepJob: %v allocs, want 0", got)
	}
}
