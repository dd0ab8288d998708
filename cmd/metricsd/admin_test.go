package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autrascale/internal/fleet"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
)

// TestAdminMethodValidation drives every /api/v1 route with every wrong
// method: each must answer 405 with an Allow header naming the right
// verbs — before any body validation runs.
func TestAdminMethodValidation(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	routes := []struct {
		path  string
		allow []string
	}{
		{"/api/v1/jobs", []string{http.MethodGet, http.MethodPost}},
		{"/api/v1/jobs/drain", []string{http.MethodPost}},
		{"/api/v1/jobs/remove", []string{http.MethodPost}},
		{"/api/v1/snapshot", []string{http.MethodGet, http.MethodPost}},
		{"/api/v1/library", []string{http.MethodGet}},
	}
	methods := []string{
		http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodPatch, http.MethodHead,
	}
	for _, rt := range routes {
		allowed := make(map[string]bool, len(rt.allow))
		for _, m := range rt.allow {
			allowed[m] = true
		}
		for _, method := range methods {
			if allowed[method] {
				continue
			}
			req, err := http.NewRequest(method, ts.URL+rt.path, bytes.NewReader(nil))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, rt.path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, rt.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != strings.Join(rt.allow, ", ") {
				t.Errorf("%s %s: Allow %q, want %q", method, rt.path, got, rt.allow)
			}
		}
	}
}

// TestAdminBadJSON drives every mutating route with malformed bodies:
// broken JSON, unknown fields, and trailing garbage are all 400.
func TestAdminBadJSON(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	bodies := []struct {
		label string
		body  string
	}{
		{"malformed", `{"name": `},
		{"unknown field", `{"name": "x", "bogus": 1}`},
		{"trailing data", `{"name": "x"} {"again": true}`},
		{"wrong type", `{"name": 42}`},
	}
	for _, route := range []string{"/api/v1/jobs", "/api/v1/jobs/drain", "/api/v1/jobs/remove"} {
		for _, b := range bodies {
			resp := post(t, ts.URL+route, b.body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with %s body: status %d, want 400", route, b.label, resp.StatusCode)
			}
		}
	}
}

// TestAdminOversizeBody drives every mutating route with a well-formed
// body just over maxAdminBody: each answers 413 without decoding it, so
// no oversized name reaches the fleet as a job, a metrics tag or a
// journal field.
func TestAdminOversizeBody(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	body := `{"name": "` + strings.Repeat("x", maxAdminBody) + `", "workload": "wordcount"}`
	for _, route := range []string{"/api/v1/jobs", "/api/v1/jobs/drain", "/api/v1/jobs/remove"} {
		resp := post(t, ts.URL+route, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", route, len(body), resp.StatusCode)
		}
	}
	if _, total := srv.fleet.JobsPage(0, 0); total != 2 {
		t.Fatalf("fleet holds %d jobs after oversized submits, want the 2 it started with", total)
	}
}

// TestAdminJobLifecycle exercises the happy path and the error statuses:
// submit (with policy selection), duplicate 409, unknown workload/policy
// 400, drain, remove, unknown name 404.
func TestAdminJobLifecycle(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	count := func() int {
		resp, err := http.Get(ts.URL + "/api/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var listing struct {
			Total int `json:"total"`
			Jobs  []struct {
				Name string `json:"name"`
			} `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatalf("decode listing: %v", err)
		}
		if len(listing.Jobs) != listing.Total {
			t.Fatalf("listing total %d but %d jobs", listing.Total, len(listing.Jobs))
		}
		return listing.Total
	}
	if got := count(); got != 2 {
		t.Fatalf("initial jobs: %d, want 2", got)
	}

	// The staggered fleet uses every core, so retire one job before
	// submitting a replacement (also proves admission sees freed capacity).
	resp := post(t, ts.URL+"/api/v1/jobs/remove", `{"name": "wordcount-02"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}

	// Submit with an explicit baseline policy.
	resp = post(t, ts.URL+"/api/v1/jobs",
		`{"name": "extra", "workload": "wordcount", "rate_rps": 250000, "policy": "ds2"}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	if got := count(); got != 2 {
		t.Fatalf("jobs after remove+submit: %d, want 2", got)
	}

	for _, tc := range []struct {
		label, body string
		want        int
	}{
		{"duplicate name", `{"name": "extra", "workload": "wordcount"}`, http.StatusConflict},
		{"unknown workload", `{"name": "w", "workload": "nope"}`, http.StatusBadRequest},
		{"unknown policy", `{"name": "p", "workload": "wordcount", "policy": "nope"}`, http.StatusBadRequest},
		{"over capacity", `{"name": "big", "workload": "wordcount", "machines": 100}`, http.StatusConflict},
	} {
		resp := post(t, ts.URL+"/api/v1/jobs", tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("submit %s: status %d, want %d", tc.label, resp.StatusCode, tc.want)
		}
		if tc.label == "unknown policy" {
			// The 400 body is the registry's own message, as everywhere a
			// policy name is resolved.
			_, want := policy.Lookup("nope")
			if got := strings.TrimSpace(string(body)); got != want.Error() {
				t.Errorf("submit unknown policy: body %q, want %q", got, want)
			}
		}
	}

	// Drain keeps the job inspectable (state drained); Remove deletes it.
	resp = post(t, ts.URL+"/api/v1/jobs/drain", `{"name": "extra"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if got := count(); got != 2 {
		t.Fatalf("jobs after drain: %d, want 2 (drained jobs stay listed)", got)
	}
	resp = post(t, ts.URL+"/api/v1/jobs/remove", `{"name": "extra"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove drained: status %d", resp.StatusCode)
	}
	if got := count(); got != 1 {
		t.Fatalf("jobs after remove: %d, want 1", got)
	}

	for _, route := range []string{"/api/v1/jobs/drain", "/api/v1/jobs/remove"} {
		resp := post(t, ts.URL+route, `{"name": "ghost"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s unknown job: status %d, want 404", route, resp.StatusCode)
		}
		resp = post(t, ts.URL+route, `{}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s empty name: status %d, want 400", route, resp.StatusCode)
		}
	}
}

// A job name containing a tag separator is refused with 400: accepted,
// "a,operator=mid" would have forged labels on /metrics, and removing it
// would have left its series behind.
func TestAdminRejectsTagSeparatorsInJobName(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	// Free capacity, so only the name can refuse a submission.
	resp := post(t, ts.URL+"/api/v1/jobs/remove", `{"name": "wordcount-02"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}
	for _, name := range []string{`a,operator=mid`, `a=b`, `a\tb`} {
		resp := post(t, ts.URL+"/api/v1/jobs", `{"name": "`+name+`", "workload": "wordcount", "rate_rps": 250000}`)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "name must not contain") {
			t.Errorf("submit %q: status %d, body %q; want 400 naming the name", name, resp.StatusCode, body)
		}
	}
	srv.fleet.RunUntil(120)
	if out := string(get(t, ts, "/metrics")); strings.Contains(out, `operator="mid"`) {
		t.Fatalf("forged labels exposed:\n%s", out)
	}
}

// TestAdminRemoveThenResubmitSameName is the admin cycle that used to
// kill the daemon: remove a job that has ticked, submit a new job under
// the same name, keep rounding. The removed job's series must leave
// /metrics and the new job's must start on its own engine clock.
func TestAdminRemoveThenResubmitSameName(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	const series = `taskmanager_job_throughput{job="wordcount-02"}`

	srv.fleet.RunUntil(600)
	if !strings.Contains(scrape(), series) {
		t.Fatal("wordcount-02 not exposed before removal")
	}
	resp := post(t, ts.URL+"/api/v1/jobs/remove", `{"name": "wordcount-02"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}
	if out := scrape(); strings.Contains(out, `job="wordcount-02"`) {
		t.Fatalf("removed job still on /metrics:\n%s", out)
	}
	resp = post(t, ts.URL+"/api/v1/jobs", `{"name": "wordcount-02", "workload": "wordcount", "rate_rps": 250000}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, body)
	}
	srv.fleet.RunUntil(srv.fleet.Now() + 300) // out-of-order panic here before the fix
	if !strings.Contains(scrape(), series) {
		t.Fatal("resubmitted job not exposed")
	}
}

// TestAdminSnapshotRoundTrip proves the API's snapshots are the real
// thing: GET streams a decodable snapshot, POST lands one on disk, and
// both restore into a working fleet.
func TestAdminSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	srv := testServer(t, serverConfig{SnapshotPath: path})
	srv.fleet.RunUntil(300)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// GET: the download decodes and restores.
	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Decode(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode downloaded snapshot: %v", err)
	}
	if len(st.Jobs) != 2 || st.NowSec < 300 {
		t.Fatalf("downloaded snapshot: %d jobs at t=%.0f", len(st.Jobs), st.NowSec)
	}
	restored, err := fleet.Restore(st, fleet.RestoreOptions{})
	if err != nil {
		t.Fatalf("restore downloaded snapshot: %v", err)
	}
	if got := len(restored.JobNames()); got != 2 {
		t.Fatalf("restored fleet: %d jobs, want 2", got)
	}

	// POST: the trigger writes the same snapshot to the configured path.
	resp = post(t, ts.URL+"/api/v1/snapshot", "")
	var trigger struct {
		Path string  `json:"path"`
		Jobs int     `json:"jobs"`
		Now  float64 `json:"now_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trigger); err != nil {
		t.Fatalf("decode trigger response: %v", err)
	}
	resp.Body.Close()
	if trigger.Path != path || trigger.Jobs != 2 {
		t.Fatalf("trigger response: %+v", trigger)
	}
	onDisk, err := persist.ReadFile(path)
	if err != nil {
		t.Fatalf("read triggered snapshot: %v", err)
	}
	if len(onDisk.Jobs) != 2 {
		t.Fatalf("triggered snapshot: %d jobs, want 2", len(onDisk.Jobs))
	}

	// Library view matches the snapshot's shared models.
	resp, err = http.Get(ts.URL + "/api/v1/library")
	if err != nil {
		t.Fatal(err)
	}
	var lib map[string][]float64
	if err := json.NewDecoder(resp.Body).Decode(&lib); err != nil {
		t.Fatalf("decode library: %v", err)
	}
	resp.Body.Close()
	if len(lib) != len(onDisk.Shared) {
		t.Fatalf("library signatures: %d, want %d", len(lib), len(onDisk.Shared))
	}
}

// TestAdminSnapshotPOSTWithoutPath answers 409 when no -snapshot path is
// configured — the trigger has nowhere to write.
func TestAdminSnapshotPOSTWithoutPath(t *testing.T) {
	srv := testServer(t, serverConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp := post(t, ts.URL+"/api/v1/snapshot", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /api/v1/snapshot without -snapshot: status %d, want 409", resp.StatusCode)
	}
}

// TestServerRestoreBoot boots metricsd from a snapshot file via the
// Restore config — the -restore flag's path — and checks the fleet picks
// up where the file left off.
func TestServerRestoreBoot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "boot.json")
	seedSrv := testServer(t, serverConfig{})
	seedSrv.fleet.RunUntil(300)
	if err := persist.WriteFile(path, seedSrv.fleet.PersistState()); err != nil {
		t.Fatal(err)
	}

	srv := testServer(t, serverConfig{Restore: path})
	if got := len(srv.fleet.JobNames()); got != 2 {
		t.Fatalf("restore boot: %d jobs, want 2", got)
	}
	if srv.fleet.Now() < 300 {
		t.Fatalf("restore boot: clock %.0f, want >= 300", srv.fleet.Now())
	}

	// A bad file fails loudly at boot, not at first scrape.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := newServer(serverConfig{
		Workload: "wordcount", Seed: 7, Restore: filepath.Join(dir, "junk.json"),
	}); err == nil {
		t.Fatal("restore from junk file: no error")
	}
}

// TestServerCheckpointerWiring proves the drive-loop checkpointer writes
// restorable snapshots on the configured cadence.
func TestServerCheckpointerWiring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "auto.json")
	srv := testServer(t, serverConfig{SnapshotPath: path, CheckpointEvery: 2})
	if srv.checkpointer == nil {
		t.Fatal("no checkpointer despite SnapshotPath+CheckpointEvery")
	}
	for i := 0; i < 4; i++ {
		srv.fleet.Round()
		srv.checkpointer.Tick()
	}
	if err := srv.checkpointer.Close(); err != nil {
		t.Fatalf("checkpointer close: %v", err)
	}
	st, err := persist.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("checkpoint: %d jobs, want 2", len(st.Jobs))
	}
}

// TestShutdownLandsLastCheckpoint runs the daemon's own serve loop and
// cancels it as SIGTERM would. The cadence is far longer than the run, so
// no periodic checkpoint ever fires: the file can only come from the
// shutdown's Checkpointer.Close, and it must hold the fleet's terminal
// clock — docs/durability.md's "the last snapshot always lands".
func TestShutdownLandsLastCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.json")
	srv := testServer(t, serverConfig{SnapshotPath: path, CheckpointEvery: 1 << 30})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.serve(ctx, "127.0.0.1:0", time.Microsecond) }()

	deadline := time.Now().Add(30 * time.Second)
	for srv.fleet.Now() < 600 {
		if time.Now().After(deadline) {
			t.Fatalf("drive loop reached only t=%.0fs", srv.fleet.Now())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("a checkpoint landed before shutdown; the test would not isolate Close")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}

	st, err := persist.ReadFile(path)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if now := srv.fleet.Now(); st.NowSec != now || len(st.Jobs) != 2 {
		t.Fatalf("final checkpoint at t=%.0fs with %d jobs, want the fleet's last t=%.0fs with 2",
			st.NowSec, len(st.Jobs), now)
	}
}
