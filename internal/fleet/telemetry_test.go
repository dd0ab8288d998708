package fleet

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"autrascale/internal/metrics"
)

// exposition renders the store the way /metrics does.
func exposition(t *testing.T, st *metrics.Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// linesOf returns the exposition lines containing label.
func linesOf(exposition, label string) []string {
	var out []string
	for _, l := range strings.Split(exposition, "\n") {
		if strings.Contains(l, label) {
			out = append(out, l)
		}
	}
	return out
}

// Remove releases the job's series and instruments: /metrics stops
// listing it, and a job resubmitted under the same name starts fresh
// series at its own t=0. Before the release the dead job's series
// survived and the new engine's first tick panicked the process
// ("out-of-order sample ... 1 after 2040").
func TestRemoveReleasesTelemetryAndNameIsReusable(t *testing.T) {
	store := metrics.NewStore()
	f, err := New(Config{TotalCores: 64, Seed: 5, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "keeper"} {
		if err := f.Submit(testJob(t, name, 1200)); err != nil {
			t.Fatal(err)
		}
	}
	f.RunUntil(1200)
	out := exposition(t, store)
	if !strings.Contains(out, `{job="a"}`) || !strings.Contains(out, `job="a",operator="mid"`) {
		t.Fatalf("job a not exposed before removal:\n%s", out)
	}
	keeperLines := linesOf(out, `job="keeper"`)
	before, _ := store.Latest(metrics.MetricThroughput, map[string]string{"job": "a"})

	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	out = exposition(t, store)
	if strings.Contains(out, `job="a"`) {
		t.Fatalf("removed job still exposed:\n%s", out)
	}
	if !strings.Contains(out, `{job="keeper"}`) || !strings.Contains(out, "autrascale_fleet_jobs_removed_total 1") {
		t.Fatalf("removal dropped telemetry it does not own:\n%s", out)
	}
	if got := linesOf(out, `job="keeper"`); !slices.Equal(got, keeperLines) {
		t.Fatalf("keeper's exposition changed with the removal:\n%s\nwas:\n%s",
			strings.Join(got, "\n"), strings.Join(keeperLines, "\n"))
	}

	if err := f.Submit(testJob(t, "a", 1400)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(f.Now() + 600) // panicked on the new engine's first tick
	if snap := f.Snapshot(); snap.Health.Quarantined != 0 {
		t.Fatalf("%d jobs quarantined after resubmission", snap.Health.Quarantined)
	}
	p, ok := store.Latest(metrics.MetricThroughput, map[string]string{"job": "a"})
	if !ok || p.TimeSec <= 0 || p.TimeSec >= before.TimeSec {
		t.Fatalf("resubmitted job's throughput series ends at %+v (%v), the removed job's ended at %+v; want a fresh series on the new engine clock",
			p, ok, before)
	}
}

// Restoring into a store that still holds the jobs' series (the engines
// come back with clocks at zero) replaces them instead of panicking on
// the first restored tick.
func TestRestoreIntoUsedStoreReplacesSeries(t *testing.T) {
	store := metrics.NewStore()
	f, err := New(Config{TotalCores: 256, Seed: 21, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(replayJob(t, "wc-a", 320e3)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(900)
	tags := map[string]string{"job": "wc-a"}
	before, _ := store.Latest(metrics.MetricThroughput, tags)
	st, _ := snapshotThroughBytes(t, f)

	restored, err := Restore(st, RestoreOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Latest(metrics.MetricThroughput, tags); ok {
		t.Fatal("the replaced job's series survived the restore")
	}
	// Planning ran the engine ahead of the fleet clock before the
	// snapshot; round until the fleet catches up and the job ticks again.
	for i := 0; ; i++ {
		if i == 500 {
			t.Fatal("restored job never stepped")
		}
		restored.Round()
		if jobs, _ := restored.JobsPage(0, 0); jobs[0].SimulatedSec > 0 {
			break
		}
	}
	p, ok := store.Latest(metrics.MetricThroughput, tags)
	if !ok || p.TimeSec <= 0 || p.TimeSec >= before.TimeSec {
		t.Fatalf("restored job's throughput series ends at %+v (%v), the replaced one ended at %+v; want the restored engine's clock",
			p, ok, before)
	}
}
