package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"autrascale/internal/core"
	"autrascale/internal/trace"
)

// testServer builds a wordcount server (seed 7, 2 jobs unless cfg says
// otherwise). Tests advance it synchronously with srv.fleet.Round() — no
// drive goroutine, no listener.
func testServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	if cfg.Workload == "" {
		cfg.Workload = "wordcount"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Jobs == 0 && cfg.Restore == "" {
		cfg.Jobs = 2
	}
	srv, _, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	return srv
}

// transferServer drives a one-job fleet through both of the paper's
// planners: wordcount-01's first plan is Algorithm 1; it is then drained
// (publishing its model) and a second job, "warm", is submitted through
// the admin API, whose first plan warm-starts into Algorithm 2. Its
// latency target is tight enough that it replans on QoS within an hour.
func transferServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := testServer(t, serverConfig{Jobs: 1})
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	for _, req := range []struct{ path, body string }{
		{"/api/v1/jobs/drain", `{"name": "wordcount-01"}`},
		{"/api/v1/jobs", `{"name": "warm", "workload": "wordcount", "rate_rps": 300000, "target_latency_ms": 100}`},
	} {
		resp := post(t, ts.URL+req.path, req.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", req.path, resp.StatusCode)
		}
	}
	srv.fleet.Round()
	return srv, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDebugDecisionsEndpoint(t *testing.T) {
	srv, ts := transferServer(t)
	srv.fleet.RunUntil(srv.fleet.Now() + 3600) // the warm job's QoS replan

	coldBody := get(t, ts, "/debug/decisions?job=wordcount-01")
	warmBody := get(t, ts, "/debug/decisions?job=warm")
	var cold, warm []core.DecisionReport
	if err := json.Unmarshal(coldBody, &cold); err != nil {
		t.Fatalf("decode /debug/decisions: %v", err)
	}
	if err := json.Unmarshal(warmBody, &warm); err != nil {
		t.Fatalf("decode /debug/decisions: %v", err)
	}
	if len(warm) < 2 || warm[0].Action != core.ActionAlgorithm2 {
		t.Fatalf("warm-started job: %d reports, want >= 2 starting with algorithm2", len(warm))
	}
	reports := append(cold, warm...)

	var a1, a2 *core.DecisionReport
	for i := range reports {
		switch reports[i].Action {
		case core.ActionAlgorithm1:
			if a1 == nil {
				a1 = &reports[i]
			}
		case core.ActionAlgorithm2:
			a2 = &reports[i]
		}
	}
	if a1 == nil {
		t.Fatal("no algorithm1 decision report")
	}
	if a2 == nil {
		t.Fatal("no algorithm2 (transfer) decision report")
	}

	// Acceptance: chosen parallelism vector, score F, Eq. 9 bound and
	// margin, BO iteration count.
	if len(a1.Chosen) == 0 {
		t.Error("algorithm1 report has no chosen parallelism vector")
	}
	if a1.Score == 0 {
		t.Error("algorithm1 report has zero score")
	}
	if a1.Threshold <= 0 {
		t.Errorf("eq9 threshold = %v, want > 0", a1.Threshold)
	}
	if a1.Margin != a1.Score-a1.Threshold {
		t.Errorf("eq9 margin %v != score-threshold %v", a1.Margin, a1.Score-a1.Threshold)
	}
	if a1.Iterations <= 0 && a1.BootstrapRuns <= 0 {
		t.Error("algorithm1 report recorded no search effort")
	}
	// Transfer specifics: the source model's rate must be the first
	// planned rate.
	if a2.TransferSourceRate <= 0 {
		t.Errorf("transfer_source_rate = %v, want > 0", a2.TransferSourceRate)
	}
	if len(a2.LibraryRates) == 0 {
		t.Error("algorithm2 report has no library rates")
	}

	// The raw JSON must use the documented field names.
	for _, key := range []string{
		`"chosen"`, `"score"`, `"eq9_threshold"`, `"eq9_margin"`,
		`"bo_iterations"`, `"transfer_source_rate"`, `"iteration_log"`,
	} {
		if !strings.Contains(string(coldBody)+string(warmBody), key) {
			t.Errorf("/debug/decisions missing field %s", key)
		}
	}

	// ?n=1 limits to the most recent report.
	var last []core.DecisionReport
	if err := json.Unmarshal(get(t, ts, "/debug/decisions?job=warm&n=1"), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 1 {
		t.Fatalf("?n=1 returned %d reports", len(last))
	}
	if last[0].TimeSec != warm[len(warm)-1].TimeSec {
		t.Error("?n=1 did not return the newest report")
	}
}

func TestDebugTraceAndMetricsEndpoints(t *testing.T) {
	srv := testServer(t, serverConfig{Jobs: 1})
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var tr struct {
		Dropped uint64       `json:"dropped"`
		Spans   []trace.Span `json:"spans"`
	}
	if err := json.Unmarshal(get(t, ts, "/debug/trace"), &tr); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("no spans recorded after a planning step")
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"mape.step", "core.algorithm1", "bo.suggest"} {
		if !names[want] {
			t.Errorf("span %q missing from /debug/trace", want)
		}
	}

	var limited struct {
		Spans []trace.Span `json:"spans"`
	}
	if err := json.Unmarshal(get(t, ts, "/debug/trace?n=3"), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Spans) != 3 {
		t.Fatalf("?n=3 returned %d spans", len(limited.Spans))
	}

	metricsBody := string(get(t, ts, "/metrics"))
	for _, want := range []string{
		"autrascale_decisions_total",
		"autrascale_bo_iterations_bucket",
		`le="+Inf"`,
		"autrascale_bo_iterations_count",
		"autrascale_runtime_goroutines",
		"autrascale_runtime_heap_alloc_bytes",
		"autrascale_runtime_gc_pause_ns_bucket",
		"autrascale_runtime_gc_pause_ns_count",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// /status is the fleet summary; the job's own parallelism, decisions and
// SLO tracker are in its /debug/fleet listing entry.
func TestStatusAndHealthz(t *testing.T) {
	srv := testServer(t, serverConfig{Jobs: 1})
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var snap struct {
		NowSec float64 `json:"now_sec"`
		Jobs   int     `json:"jobs"`
	}
	if err := json.Unmarshal(get(t, ts, "/status"), &snap); err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	if snap.NowSec <= 0 {
		t.Error("status reports no simulated time")
	}
	if snap.Jobs != 1 {
		t.Errorf("status reports %d jobs, want 1", snap.Jobs)
	}

	var page fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet"), &page); err != nil {
		t.Fatalf("decode /debug/fleet: %v", err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].Name != "wordcount-01" {
		t.Fatalf("one-job fleet lists %+v, want wordcount-01", page.Jobs)
	}
	j := page.Jobs[0]
	if j.Parallelism == 0 {
		t.Error("job reports no parallelism")
	}
	if j.Decisions == 0 {
		t.Error("job reports no controller decisions")
	}
	if j.SLO.Observations == 0 {
		t.Error("job's SLO tracker saw no observations after a round")
	}
	if j.SLO.State == "" {
		t.Error("job's health has no state")
	}

	if body := string(get(t, ts, "/healthz")); !strings.Contains(body, "ok") {
		t.Errorf("healthz = %q", body)
	}
}

// The fleet needs at least one job to boot from flags: -jobs below 1 is
// refused with an error naming the flag, before anything is bound.
func TestRunRejectsJobsBelowOne(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, jobs := range []string{"0", "-3"} {
		// The address is taken: a run that got as far as binding would
		// fail on it instead of on -jobs.
		err := run([]string{"-jobs", jobs, "-workload", "wordcount", "-addr", ln.Addr().String()})
		if err == nil || !strings.Contains(err.Error(), "-jobs") {
			t.Errorf("-jobs %s: error %v, want one naming -jobs", jobs, err)
		}
	}
}

func TestNewServerRejectsUnknownWorkload(t *testing.T) {
	if _, _, err := newServer(serverConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// /debug/fleet serves the multi-job snapshot and /debug/decisions
// requires (and honors) ?job=NAME.
func TestFleetModeEndpoints(t *testing.T) {
	srv := testServer(t, serverConfig{})
	// Two rounds: the first triggers every job's initial planning session,
	// the second publishes nothing new but exercises the barrier.
	srv.fleet.Round()
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var fleetSnap fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet"), &fleetSnap); err != nil {
		t.Fatalf("decode /debug/fleet: %v", err)
	}
	if len(fleetSnap.Jobs) != 2 {
		t.Fatalf("fleet snapshot lists %d jobs, want 2", len(fleetSnap.Jobs))
	}
	if fleetSnap.Summary.UsedCores != 64 || fleetSnap.Summary.TotalCores != 64 {
		t.Fatalf("capacity %d/%d, want 64/64",
			fleetSnap.Summary.UsedCores, fleetSnap.Summary.TotalCores)
	}
	if fleetSnap.Summary.Jobs != 2 {
		t.Fatalf("summary job count = %d, want 2", fleetSnap.Summary.Jobs)
	}
	if fleetSnap.Summary.Health.Jobs != 2 {
		t.Fatalf("summary health aggregate = %+v, want 2 jobs", fleetSnap.Summary.Health)
	}
	for _, j := range fleetSnap.Jobs {
		if j.State != "running" {
			t.Fatalf("job %s state = %s, want running", j.Name, j.State)
		}
		if j.Decisions == 0 {
			t.Fatalf("job %s planned nothing after two rounds", j.Name)
		}
	}

	// Per-job decisions require the job selector.
	resp, err := http.Get(ts.URL + "/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bare /debug/decisions: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "wordcount-01") {
		t.Fatalf("fleet decisions error should list job names, got %s", body)
	}
	var reports []core.DecisionReport
	if err := json.Unmarshal(get(t, ts, "/debug/decisions?job="+fleetSnap.Jobs[0].Name), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("per-job decisions endpoint returned nothing")
	}
	if resp, err := http.Get(ts.URL + "/debug/decisions?job=nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}

	// /status serves the fleet snapshot too; /metrics carries the
	// fleet-aggregate counters.
	if body := string(get(t, ts, "/status")); !strings.Contains(body, "shared_models") {
		t.Error("/status should serve the fleet snapshot")
	}
	if body := string(get(t, ts, "/metrics")); !strings.Contains(body, "autrascale_fleet_rounds_total") {
		t.Error("/metrics missing fleet round counter")
	}
}

// fleetPage mirrors handleFleet's streamed response: a summary object
// plus one page of the job listing.
type fleetPage struct {
	Summary struct {
		NowSec     float64 `json:"now_sec"`
		TotalCores int     `json:"total_cores"`
		UsedCores  int     `json:"used_cores"`
		Jobs       int     `json:"jobs"`
		Health     struct {
			Jobs    int `json:"jobs"`
			Healthy int `json:"healthy"`
		} `json:"health"`
	} `json:"summary"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	Jobs   []struct {
		Name        string `json:"name"`
		State       string `json:"state"`
		Decisions   int    `json:"decisions"`
		Parallelism int    `json:"parallelism_total"`
		SLO         struct {
			State        string `json:"state"`
			Observations int    `json:"observations"`
		} `json:"slo"`
	} `json:"jobs"`
}

// /debug/fleet pagination: offset/limit slice the listing, and malformed
// or negative values are rejected with 400 — never a panic or a silent
// full dump.
func TestFleetPaginationAndValidation(t *testing.T) {
	srv := testServer(t, serverConfig{Seed: 11, Jobs: 5})
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var full fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet"), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Jobs) != 5 || full.Summary.Jobs != 5 {
		t.Fatalf("full listing has %d jobs (summary %d), want 5", len(full.Jobs), full.Summary.Jobs)
	}

	var page fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet?offset=1&limit=2"), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 {
		t.Fatalf("page(1,2) has %d jobs, want 2", len(page.Jobs))
	}
	if page.Jobs[0].Name != full.Jobs[1].Name || page.Jobs[1].Name != full.Jobs[2].Name {
		t.Fatalf("page(1,2) = %v, want slice [1:3] of full listing", page.Jobs)
	}
	if page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page echoes offset=%d limit=%d, want 1,2", page.Offset, page.Limit)
	}

	var tail fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet?offset=4&limit=10"), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Jobs) != 1 {
		t.Fatalf("tail page has %d jobs, want 1", len(tail.Jobs))
	}
	var empty fleetPage
	if err := json.Unmarshal(get(t, ts, "/debug/fleet?offset=99"), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Jobs) != 0 {
		t.Fatalf("past-the-end page has %d jobs, want 0", len(empty.Jobs))
	}

	for _, path := range []string{
		"/debug/fleet?offset=-1",
		"/debug/fleet?limit=-5",
		"/debug/fleet?offset=abc",
		"/debug/fleet?limit=1e3",
		"/debug/fleet?offset=99999999999999999999", // overflows int64
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// /debug/health answers from the fleet's incremental aggregate.
func TestDebugHealthEndpoint(t *testing.T) {
	srv := testServer(t, serverConfig{})
	srv.fleet.Round()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var h struct {
		Jobs    int `json:"jobs"`
		Healthy int `json:"healthy"`
		TopBurn []struct {
			Name     string  `json:"name"`
			BurnRate float64 `json:"burn_rate"`
		} `json:"top_burn"`
	}
	if err := json.Unmarshal(get(t, ts, "/debug/health"), &h); err != nil {
		t.Fatalf("decode /debug/health: %v", err)
	}
	if h.Jobs != 2 {
		t.Fatalf("fleet health reports %d jobs, want 2", h.Jobs)
	}
}

// /debug/flight dumps the journal as JSONL with a decision record per
// planning step, linked by a correlation id.
func TestDebugFlightEndpoint(t *testing.T) {
	_, ts := transferServer(t)

	resp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("flight journal has %d lines, want several", len(lines))
	}
	kinds := map[trace.RecordKind]int{}
	var lastSeq uint64
	for _, line := range lines {
		var rec trace.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		kinds[rec.Kind]++
	}
	for _, want := range []trace.RecordKind{trace.KindDecision, trace.KindBOIteration} {
		if kinds[want] == 0 {
			t.Errorf("flight journal has no %q records (kinds: %v)", want, kinds)
		}
	}

	// ?n=K keeps only the newest K records.
	limited := strings.Split(strings.TrimSpace(string(get(t, ts, "/debug/flight?n=2"))), "\n")
	if len(limited) != 2 {
		t.Fatalf("?n=2 returned %d lines", len(limited))
	}
	var last trace.Record
	if err := json.Unmarshal([]byte(limited[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Seq != lastSeq {
		t.Errorf("?n=2 newest seq = %d, want %d", last.Seq, lastSeq)
	}
}

// /debug/audit reconstructs decision attribution from the live ring:
// a journal summary plus one chain per decision, filterable by job.
func TestDebugAuditEndpoint(t *testing.T) {
	_, ts := transferServer(t)

	var rep struct {
		Summary struct {
			Records   int `json:"records"`
			Decisions int `json:"decisions"`
		} `json:"summary"`
		Attributions []struct {
			Job          string `json:"job"`
			Action       string `json:"action"`
			BOIterations int    `json:"bo_iterations"`
		} `json:"attributions"`
	}
	if err := json.Unmarshal(get(t, ts, "/debug/audit"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Records == 0 || rep.Summary.Decisions == 0 {
		t.Fatalf("audit summary empty: %+v", rep.Summary)
	}
	if len(rep.Attributions) != rep.Summary.Decisions {
		t.Fatalf("got %d attributions, summary says %d decisions",
			len(rep.Attributions), rep.Summary.Decisions)
	}
	sawBO := false
	for _, a := range rep.Attributions {
		if a.Job != "wordcount-01" && a.Job != "warm" {
			t.Fatalf("unexpected job in attribution: %+v", a)
		}
		if a.BOIterations > 0 {
			sawBO = true
		}
	}
	if !sawBO {
		t.Error("no attribution carries BO iterations")
	}

	// ?job= filters; a name not in the journal yields an empty chain list
	// but keeps the summary.
	if err := json.Unmarshal(get(t, ts, "/debug/audit?job=nope"), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Attributions) != 0 {
		t.Fatalf("?job=nope returned %d attributions", len(rep.Attributions))
	}
	if rep.Summary.Records == 0 {
		t.Error("?job=nope dropped the summary")
	}
}

// -flight-cap bounds the live ring: a tiny cap must drop old records
// rather than grow.
func TestFlightCapBoundsRing(t *testing.T) {
	srv := testServer(t, serverConfig{Jobs: 1, FlightCap: 8})
	for i := 0; i < 5; i++ {
		srv.fleet.Round()
	}
	if n := srv.flight.Len(); n > 8 {
		t.Fatalf("ring holds %d records, cap is 8", n)
	}
	if srv.flight.Dropped() == 0 {
		t.Error("expected the tiny ring to drop records")
	}
}

// ?n= means the same on every route that takes it: absent or 0 is the
// whole listing, and a malformed, negative or overflowing value is a 400
// — never a silent full dump.
func TestCountParamValidation(t *testing.T) {
	_, ts := transferServer(t)
	for _, route := range []string{"/debug/flight?", "/debug/trace?", "/debug/decisions?job=warm&"} {
		all := get(t, ts, route)
		if zero := get(t, ts, route+"n=0"); !bytes.Equal(zero, all) {
			t.Errorf("GET %sn=0 differs from the full listing", route)
		}
		for _, bad := range []string{"abc", "-1", "1e3", "99999999999999999999"} {
			resp, err := http.Get(ts.URL + route + "n=" + bad)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("GET %sn=%s: status %d, want 400", route, bad, resp.StatusCode)
			}
		}
	}
}

// A request storm over every route while the drive loop rounds as fast
// as it can: four clients for about a second, each cycling its own job
// through drain, remove and resubmit between reads and snapshots. Every
// response must carry its expected status, and under -race the storm
// proves the handlers need no lock beyond the fleet's own.
func TestRouteStormWhileDriving(t *testing.T) {
	const clients = 4
	srv := testServer(t, serverConfig{Jobs: clients, SnapshotPath: filepath.Join(t.TempDir(), "storm.json")})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		srv.drive(ctx, 0)
	}()
	defer func() {
		cancel()
		<-driven
	}()

	// The pprof CPU profile and execution trace run for seconds and admit
	// one caller at a time; they are the standard library's and read no
	// server state, so the storm leaves them out.
	gets := []string{
		"/metrics", "/status", "/debug/fleet", "/debug/fleet?offset=1&limit=2",
		"/debug/health", "/debug/flight?n=64", "/debug/audit", "/debug/trace?n=64",
		"/healthz", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol",
		"/api/v1/jobs", "/api/v1/library", "/api/v1/snapshot",
	}
	do := func(method, path, body string) bool {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return false
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return false
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
			return false
		}
		return true
	}
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for c := range clients {
		name := fmt.Sprintf("wordcount-%02d", c+1)
		reads := append(slices.Clip(gets), "/debug/decisions?job="+name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, path := range reads {
					if !do(http.MethodGet, path, "") {
						return
					}
				}
				named := fmt.Sprintf(`{"name": %q}`, name)
				ok := do(http.MethodPost, "/api/v1/snapshot", "") &&
					do(http.MethodPost, "/api/v1/jobs/drain", named) &&
					do(http.MethodPost, "/api/v1/jobs/remove", named) &&
					do(http.MethodPost, "/api/v1/jobs", fmt.Sprintf(
						`{"name": %q, "workload": "wordcount", "rate_rps": %d}`, name, 300000+10000*c))
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, total := srv.fleet.JobsPage(0, 0); total != clients {
		t.Fatalf("fleet holds %d jobs after the storm, want %d", total, clients)
	}
}
