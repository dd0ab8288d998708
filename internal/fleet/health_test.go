package fleet

import (
	"fmt"
	"testing"

	"autrascale/internal/kafka"
	"autrascale/internal/slo"
)

func TestBurnTopBoundedAndSorted(t *testing.T) {
	var top burnTop
	for i := 0; i < 20; i++ {
		top.update(fmt.Sprintf("job-%02d", i), float64(i))
	}
	if len(top.entries) != topBurnK {
		t.Fatalf("ranking holds %d entries, want %d", len(top.entries), topBurnK)
	}
	for i, e := range top.entries {
		if want := float64(19 - i); e.burn != want {
			t.Fatalf("rank %d = %+v, want burn %v (descending)", i, e, want)
		}
	}
	// Re-ranking an existing member moves it, never duplicates it.
	top.update("job-19", 0.5)
	seen := map[string]bool{}
	for _, e := range top.entries {
		if seen[e.name] {
			t.Fatalf("duplicate entry %q", e.name)
		}
		seen[e.name] = true
	}
	if top.entries[0].name == "job-19" {
		t.Fatal("demoted job still ranked first")
	}
	// Equal burns tie-break by name, deterministically.
	var tie burnTop
	tie.update("b", 1)
	tie.update("a", 1)
	tie.update("c", 1)
	if tie.entries[0].name != "a" || tie.entries[2].name != "c" {
		t.Fatalf("tie-break order wrong: %+v", tie.entries)
	}
	top.remove("job-18")
	if len(top.entries) != topBurnK-1 || seen["job-18"] && top.entries[0].name == "job-18" {
		t.Fatalf("remove failed: %+v", top.entries)
	}
}

// The aggregate's class counts must track lifecycle transitions without
// ever being recomputed from the job set.
func TestFleetHealthAggregateTransitions(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := testJob(t, "bad", 1500)
	bad.Schedule = kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 1500}, {FromSec: 600, Rate: 0},
	}}
	if err := f.Submit(bad); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := f.Submit(testJob(t, n, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	h := f.HealthSnapshot()
	if h.Jobs != 4 || h.Healthy != 4 {
		t.Fatalf("post-submit health = %+v, want 4 healthy", h)
	}

	f.RunUntil(7200) // "bad" hits a zero rate and quarantines
	h = f.HealthSnapshot()
	if h.Quarantined != 1 {
		t.Fatalf("health = %+v, want 1 quarantined", h)
	}
	if got := h.Healthy + h.Degraded + h.Burning + h.Quarantined + h.Drained; got != h.Jobs {
		t.Fatalf("class counts sum to %d, jobs = %d (%+v)", got, h.Jobs, h)
	}
	// The aggregate must agree with a full recount from the job listing.
	jobs, total := f.JobsPage(0, 0)
	if total != h.Jobs {
		t.Fatalf("JobsPage total %d != health jobs %d", total, h.Jobs)
	}
	recount := FleetHealth{}
	for _, js := range jobs {
		switch {
		case js.State == StateQuarantined:
			recount.Quarantined++
		case js.State == StateDrained:
			recount.Drained++
		case js.SLO.State == slo.StateBurning:
			recount.Burning++
		case js.SLO.State == slo.StateDegraded:
			recount.Degraded++
		default:
			recount.Healthy++
		}
	}
	if recount.Healthy != h.Healthy || recount.Degraded != h.Degraded ||
		recount.Burning != h.Burning || recount.Quarantined != h.Quarantined {
		t.Fatalf("aggregate %+v disagrees with recount %+v", h, recount)
	}
	// A quarantined job never ranks in TopBurn.
	for _, r := range h.TopBurn {
		if r.Name == "bad" {
			t.Fatal("quarantined job still in TopBurn")
		}
	}

	if err := f.Drain("a"); err != nil {
		t.Fatal(err)
	}
	h = f.HealthSnapshot()
	if h.Drained != 1 {
		t.Fatalf("after drain: %+v, want 1 drained", h)
	}
	for _, r := range h.TopBurn {
		if r.Name == "a" {
			t.Fatal("drained job still in TopBurn")
		}
	}
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("bad"); err != nil {
		t.Fatal(err)
	}
	h = f.HealthSnapshot()
	if h.Jobs != 2 || h.Drained != 0 || h.Quarantined != 0 {
		t.Fatalf("after removes: %+v, want 2 jobs, no drained/quarantined", h)
	}
	if got := h.Healthy + h.Degraded + h.Burning; got != 2 {
		t.Fatalf("class counts sum to %d after removes (%+v)", got, h)
	}
}

// The acceptance criterion: the round barrier (and with it the whole
// health/snapshot path) does O(due) work per round, not O(jobs). With a
// round a fraction of the policy interval, each job is due only every
// ~policyInterval/roundSec rounds, so total barrier visits must stay far
// below jobs × rounds — and observers must not add visits at all.
func TestFleetBarrierIsODue(t *testing.T) {
	const roundSec = 6.0 // policy interval is 60s → each job due ~1/10 rounds
	f, err := New(Config{TotalCores: 256, Seed: 5, RoundSec: roundSec})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 4
	for i := 0; i < jobs; i++ {
		if err := f.Submit(testJob(t, fmt.Sprintf("j%d", i), 1500)); err != nil {
			t.Fatal(err)
		}
	}
	// Burn the planning phase first; it skews visit counts in neither
	// direction (planning jumps engines far ahead, making jobs due less
	// often), but steady state is the regime the bound describes.
	f.RunUntil(7200)
	f.mu.Lock()
	f.barrierVisited = 0
	f.mu.Unlock()

	const rounds = 100
	for i := 0; i < rounds; i++ {
		f.Round()
		f.Snapshot() // observers must stay off the per-job path
		f.HealthSnapshot()
	}
	f.mu.Lock()
	visited := f.barrierVisited
	f.mu.Unlock()
	// Steady state: each job steps once per 60s policy interval, i.e. is
	// due on ~1/10 of 6-second rounds. Allow 3× slack over the ideal
	// jobs*rounds/10; an O(jobs)-per-round regression lands at
	// jobs*rounds and trips this by a wide margin.
	limit := jobs * rounds * 3 / 10
	if visited == 0 {
		t.Fatal("no barrier visits in 100 rounds — clock not advancing?")
	}
	if visited > limit {
		t.Fatalf("barrier visited %d jobs over %d rounds (limit %d): per-round cost is O(jobs), not O(due)",
			visited, rounds, limit)
	}
}

func TestJobsPagePagination(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"p0", "p1", "p2", "p3", "p4"}
	for _, n := range names {
		if err := f.Submit(testJob(t, n, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	page, total := f.JobsPage(1, 2)
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(page) != 2 || page[0].Name != "p1" || page[1].Name != "p2" {
		t.Fatalf("page(1,2) = %+v, want [p1 p2]", page)
	}
	if page, _ := f.JobsPage(4, 10); len(page) != 1 || page[0].Name != "p4" {
		t.Fatalf("page(4,10) = %+v, want [p4]", page)
	}
	if page, _ := f.JobsPage(99, 10); len(page) != 0 {
		t.Fatalf("page past the end = %+v, want empty", page)
	}
	if page, _ := f.JobsPage(-3, 0); len(page) != 5 {
		t.Fatalf("negative offset should clamp to full listing, got %d", len(page))
	}
	// Chunked iteration reassembles the exact submission order.
	var all []string
	for off := 0; ; off += 2 {
		page, _ := f.JobsPage(off, 2)
		if len(page) == 0 {
			break
		}
		for _, js := range page {
			all = append(all, js.Name)
		}
	}
	if fmt.Sprint(all) != fmt.Sprint(names) {
		t.Fatalf("chunked listing = %v, want %v", all, names)
	}
}

// The paging edge cases scripts hit in practice: an offset exactly at
// the end (the natural stop of chunked iteration), limit 0 from a
// nonzero offset (tail of the list), and a final page shorter than the
// limit.
func TestJobsPageEdges(t *testing.T) {
	f, err := New(Config{TotalCores: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"e0", "e1", "e2", "e3", "e4"}
	for _, n := range names {
		if err := f.Submit(testJob(t, n, 1500)); err != nil {
			t.Fatal(err)
		}
	}

	// offset == len: an empty page, not an error, and the total intact.
	page, total := f.JobsPage(len(names), 2)
	if len(page) != 0 || total != 5 {
		t.Fatalf("page(len, 2) = %v total %d, want empty page, total 5", page, total)
	}

	// limit 0 means "the rest", from any offset.
	if page, _ = f.JobsPage(3, 0); len(page) != 2 || page[0].Name != "e3" || page[1].Name != "e4" {
		t.Fatalf("page(3, 0) = %+v, want [e3 e4]", page)
	}

	// The last page of a limit-2 walk holds the single leftover job.
	if page, _ = f.JobsPage(4, 2); len(page) != 1 || page[0].Name != "e4" {
		t.Fatalf("page(4, 2) = %+v, want [e4]", page)
	}

	// limit > remaining never fabricates entries.
	if page, _ = f.JobsPage(2, 100); len(page) != 3 {
		t.Fatalf("page(2, 100) returned %d jobs, want 3", len(page))
	}
}
