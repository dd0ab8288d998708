// Command metricsd runs a fleet of workload simulations under the
// AuTraScale controller and serves its metrics over HTTP — the Monitor
// stage of the paper's MAPE loop made scrapeable:
//
//	/metrics          Prometheus text exposition: every simulator series
//	                  plus controller counters/histograms and the daemon's
//	                  own runtime metrics (autrascale.runtime.*)
//	/status           JSON fleet summary (clock, capacity, health, models)
//	/debug/decisions  JSON decision reports of one job (?job=NAME, ?n=K):
//	                  why each configuration won
//	/debug/fleet      summary + paginated per-job listing
//	                  (?offset=&limit=, streamed)
//	/debug/health     SLO burn-rate health: the fleet aggregate
//	/debug/flight     the flight recorder's journal as JSONL (?n=K)
//	/debug/audit      decision attribution over the live ring: each
//	                  decision's causal chain, summarized (?job=NAME)
//	/debug/trace      recent spans from the decision-path tracer (?n=K)
//	/debug/pprof/     standard Go profiling endpoints
//	/healthz          liveness
//
// and the versioned admin API (see docs/durability.md):
//
//	/api/v1/jobs         GET list, POST submit a declarative job spec
//	/api/v1/jobs/drain   POST {"name": JOB} graceful retirement
//	/api/v1/jobs/remove  POST {"name": JOB} deletion
//	/api/v1/snapshot     POST write a durable snapshot to -snapshot,
//	                     GET download one (restorable via -restore)
//	/api/v1/library      GET shared warm-start libraries by signature
//
// The fleet is -jobs staggered-rate copies of the workload (default 1,
// each on 2 machines × 16 cores) under one sharded scheduler with
// cross-job model transfer (see docs/fleet.md), or whatever -restore's
// snapshot holds. It advances in real time (one simulated second per
// -tick-interval), so a scraper watches the controllers converge live.
//
// Usage:
//
//	metricsd [-addr :9090] [-workload wordcount] [-latency ms]
//	         [-tick-interval 10ms] [-seed N] [-flight-cap 4096]
//	         [-jobs N] [-restore snapshot.json] [-snapshot path.json]
//	         [-checkpoint-every N]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"autrascale/internal/audit"
	"autrascale/internal/fleet"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

type server struct {
	fleet  *fleet.Fleet
	store  *metrics.Store
	tracer *trace.Tracer
	flight *trace.FlightRecorder
	// snapshotPath is where POST /api/v1/snapshot and periodic
	// checkpoints land (empty: the POST answers 409 Conflict).
	snapshotPath string
	// checkpointer persists the fleet every -checkpoint-every rounds, off
	// the tick path (nil when disabled).
	checkpointer *persist.Checkpointer
}

// serverConfig parameterizes newServer so tests can build one without
// flags.
type serverConfig struct {
	Workload string
	// LatencyMS is every submitted job's target (0: the workload's).
	LatencyMS float64
	Seed      uint64
	// FlightCap sizes the flight recorder's record ring (default: the
	// recorder's own default).
	FlightCap int
	// Jobs is how many staggered-rate copies of the workload the fleet
	// starts with (at least 1).
	Jobs int
	// Restore boots the daemon from a fleet snapshot instead of
	// submitting fresh jobs (Jobs is ignored).
	Restore string
	// SnapshotPath is where POST /api/v1/snapshot and periodic
	// checkpoints write.
	SnapshotPath string
	// CheckpointEvery persists the fleet every N rounds to SnapshotPath
	// (0: only on demand via the API).
	CheckpointEvery int
}

// newServer assembles the fleet, tracer, flight recorder and store. It
// does not start the drive loop or listen — callers (main, tests) decide.
func newServer(cfg serverConfig) (*server, workloads.Spec, error) {
	spec, found := workloads.ByName(cfg.Workload)
	if !found {
		return nil, spec, fmt.Errorf("metricsd: unknown workload %q", cfg.Workload)
	}
	if cfg.Restore == "" && cfg.Jobs < 1 {
		return nil, spec, fmt.Errorf("metricsd: -jobs must be at least 1, got %d", cfg.Jobs)
	}

	store := metrics.NewStore()
	tracer := trace.New(trace.DefaultCapacity)
	flight := trace.NewFlightRecorder(cfg.FlightCap)
	tracer.AttachFlight(flight)

	var fl *fleet.Fleet
	if cfg.Restore != "" {
		st, err := persist.ReadFile(cfg.Restore)
		if err != nil {
			return nil, spec, fmt.Errorf("metricsd: %w", err)
		}
		if fl, err = fleet.Restore(st, fleet.RestoreOptions{Store: store, Tracer: tracer}); err != nil {
			return nil, spec, fmt.Errorf("metricsd: %w", err)
		}
		log.Printf("metricsd: restored %d jobs and %d distinct models from %s at t=%.0fs",
			len(st.Jobs), len(st.Models), cfg.Restore, st.NowSec)
		// Models the capture-time Save skipped are gone for good — name
		// their rates so the loss is visible, not silent.
		for _, sh := range st.Shared {
			if len(sh.SkippedRates) > 0 {
				log.Printf("metricsd: restored shared library %q without models for rates %v (skipped at capture)",
					sh.Signature, sh.SkippedRates)
			}
		}
		for _, js := range st.Jobs {
			if len(js.LibrarySkipped) > 0 {
				log.Printf("metricsd: restored job %q without private models for rates %v (skipped at capture)",
					js.Name, js.LibrarySkipped)
			}
		}
	} else {
		var err error
		fl, err = fleet.New(fleet.Config{
			TotalCores: cfg.Jobs * 32, // StaggeredJobs default: 2 machines × 16 cores each
			Seed:       cfg.Seed,
			Store:      store,
			Tracer:     tracer,
		})
		if err != nil {
			return nil, spec, err
		}
		for _, js := range fleet.StaggeredJobs(spec, cfg.Jobs, 0) {
			js.TargetLatencyMS = cfg.LatencyMS
			if err := fl.Submit(js); err != nil {
				return nil, spec, err
			}
		}
	}

	srv := &server{
		fleet: fl, store: store, tracer: tracer, flight: flight,
		snapshotPath: cfg.SnapshotPath,
	}
	if cfg.SnapshotPath != "" && cfg.CheckpointEvery > 0 {
		cp, err := persist.NewCheckpointer(cfg.SnapshotPath, cfg.CheckpointEvery, fl.PersistState)
		if err != nil {
			return nil, spec, err
		}
		srv.checkpointer = cp
	}
	return srv, spec, nil
}

// routes builds the HTTP mux. Factored out so tests can hit the handlers
// through httptest without a listener.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/debug/decisions", s.handleDecisions)
	mux.HandleFunc("/debug/fleet", s.handleFleet)
	mux.HandleFunc("/debug/health", s.handleHealth)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/audit", s.handleAudit)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	s.adminRoutes(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	log.Printf("metricsd: shut down")
}

// run parses the flags, builds the server and serves until SIGINT or
// SIGTERM. A configuration error returns before anything is bound.
func run(args []string) error {
	fs := flag.NewFlagSet("metricsd", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":9090", "listen address")
		workload  = fs.String("workload", "wordcount", "workload: wordcount, yahoo, nexmark-q5, nexmark-q11")
		latency   = fs.Float64("latency", 0, "target latency ms (default: the workload's)")
		tick      = fs.Duration("tick-interval", 10*time.Millisecond, "wall time per simulated second")
		seed      = fs.Uint64("seed", 1, "random seed")
		flightCap = fs.Int("flight-cap", 0, "flight recorder ring capacity (0: default)")
		jobs      = fs.Int("jobs", 1, "run N staggered-rate copies of the workload (at least 1)")
		restore   = fs.String("restore", "", "boot from a fleet snapshot file (-jobs is ignored)")
		snapshot  = fs.String("snapshot", "", "path for POST /api/v1/snapshot and periodic checkpoints")
		ckptEvery = fs.Int("checkpoint-every", 0, "checkpoint the fleet to -snapshot every N rounds (0: on demand only)")
	)
	fs.Parse(args)

	srv, spec, err := newServer(serverConfig{
		Workload:        *workload,
		LatencyMS:       *latency,
		Seed:            *seed,
		FlightCap:       *flightCap,
		Jobs:            *jobs,
		Restore:         *restore,
		SnapshotPath:    *snapshot,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		return err
	}
	if *restore != "" {
		log.Printf("metricsd: fleet restored from %s on %s (%d jobs, t=%.0fs)",
			*restore, *addr, len(srv.fleet.JobNames()), srv.fleet.Now())
	} else {
		log.Printf("metricsd: fleet of %d %s jobs on %s", *jobs, spec.Name, *addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.serve(ctx, *addr, *tick)
}

// shutdownGrace bounds how long a shutdown waits for in-flight requests
// before it moves on to the final checkpoint.
const shutdownGrace = 5 * time.Second

// Server timeouts: a client gets readHeaderTimeout to send its request
// headers and a keep-alive connection is closed after idleTimeout without
// a request. There is deliberately no write timeout: /debug/fleet and
// /debug/pprof/profile legitimately stream for longer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve binds addr, drives the simulation and serves until ctx is
// cancelled (SIGINT/SIGTERM in run), then shuts down in the order that
// lands the last snapshot: the drive loop stops, so no round is in
// flight; the HTTP server drains its requests; and the checkpointer's
// Close writes the final synchronous checkpoint of the fleet's terminal
// state. A daemon that cannot bind returns before it drives or writes
// anything, so a second instance started by mistake never overwrites the
// first one's snapshot.
func (s *server) serve(ctx context.Context, addr string, tick time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	driveCtx, stopDrive := context.WithCancel(ctx)
	defer stopDrive()
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		s.drive(driveCtx, tick)
	}()
	httpSrv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	select {
	case err = <-served: // the listener died under us; still shut down in order
	case <-ctx.Done():
	}
	stopDrive()
	<-driven
	if err == nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = httpSrv.Shutdown(shutCtx)
		cancel()
	}
	if s.checkpointer != nil {
		err = errors.Join(err, s.checkpointer.Close())
	}
	return err
}

// sleep waits d or until ctx is cancelled, whichever is first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// drive advances the fleet one round at a time, pacing simulated seconds
// against wall time, until ctx is cancelled.
func (s *server) drive(ctx context.Context, tick time.Duration) {
	for ctx.Err() == nil {
		before := s.fleet.Now()
		s.fleet.Round()
		if s.checkpointer != nil {
			s.checkpointer.Tick()
			if err := s.checkpointer.Err(); err != nil {
				log.Printf("metricsd: checkpoint error: %v", err)
			}
		}
		sleep(ctx, time.Duration(s.fleet.Now()-before)*tick)
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.store.WriteExposition(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The daemon's own runtime telemetry rides the same scrape.
	if err := metrics.WriteRuntimeExposition(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleStatus serves the fleet summary.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.Snapshot())
}

// handleDecisions serves one job's retained decision reports — the full
// "why this configuration" record per replan/step, newest last. ?job=NAME
// selects the job; ?n=K limits the response to the last K reports.
func (s *server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n, ok := intParam(w, r, "n")
	if !ok {
		return
	}
	job := r.URL.Query().Get("job")
	if job == "" {
		w.WriteHeader(http.StatusBadRequest)
		writeJSON(w, struct {
			Error string   `json:"error"`
			Jobs  []string `json:"jobs"`
		}{Error: "select a job with ?job=NAME", Jobs: s.fleet.JobNames()})
		return
	}
	reports, err := s.fleet.Decisions(job)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if n > 0 && n < len(reports) {
		reports = reports[len(reports)-n:]
	}
	writeJSON(w, reports)
}

// intParam parses a non-negative integer query parameter, where 0 (or
// an absent parameter) means "all". Malformed, negative, or overflowing
// values get a 400 — never a panic or a silent full dump.
func intParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		http.Error(w, fmt.Sprintf("bad %s %q: want a non-negative integer", name, raw),
			http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// fleetPageChunk bounds how many job statuses handleFleet materializes
// at a time: the listing is streamed chunk by chunk, so a full dump of a
// 10k-job fleet never builds the whole array in memory.
const fleetPageChunk = 256

// handleFleet serves the fleet summary (clock, capacity, health
// aggregate, shared models) plus a page of the per-job listing.
// ?offset=&limit= select the page (defaults: the whole listing,
// streamed); invalid values are rejected with 400.
func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	offset, ok := intParam(w, r, "offset")
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit")
	if !ok {
		return
	}
	summary, err := json.Marshal(s.fleet.Snapshot())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Stream: summary first, then the jobs array one chunk at a time.
	// Jobs submitted or removed between chunks can shift pages — a
	// debug endpoint trades that for bounded memory.
	fmt.Fprintf(w, "{\"summary\":%s,\"offset\":%d,\"limit\":%d,\"jobs\":[", summary, offset, limit)
	written, first := 0, true
	for off := offset; ; {
		n := fleetPageChunk
		if limit > 0 && limit-written < n {
			n = limit - written
		}
		if n == 0 {
			break
		}
		page, _ := s.fleet.JobsPage(off, n)
		if len(page) == 0 {
			break
		}
		for _, js := range page {
			blob, err := json.Marshal(js)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if !first {
				w.Write([]byte{','})
			}
			first = false
			w.Write(blob)
		}
		written += len(page)
		off += len(page)
		if len(page) < n {
			break
		}
	}
	fmt.Fprint(w, "]}")
}

// handleHealth serves the SLO burn-rate view: the fleet's incremental
// aggregate (O(its top-K burn ranking), never a walk of the jobs).
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.HealthSnapshot())
}

// handleFlight dumps the flight recorder's journal as JSONL, oldest
// first. ?n=K keeps only the most recent K records.
func (s *server) handleFlight(w http.ResponseWriter, r *http.Request) {
	limit, ok := intParam(w, r, "n")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.flight.WriteJSONL(w, limit); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleAudit runs the offline attribution layer against the live
// flight ring: the journal summary plus every decision's causal chain
// (BO iterations, rescale attempts, chaos events, SLO follow-up).
// ?job=NAME keeps only that job's decisions. This is `flightctl
// attribute` without the download round-trip.
func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	j, err := audit.FromRecords(s.flight.Snapshot(0))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	atts := j.Attributions()
	if job := r.URL.Query().Get("job"); job != "" {
		kept := atts[:0]
		for _, a := range atts {
			if a.Job == job {
				kept = append(kept, a)
			}
		}
		atts = kept
	}
	writeJSON(w, struct {
		Summary      audit.Summary       `json:"summary"`
		Attributions []audit.Attribution `json:"attributions"`
	}{Summary: j.Summarize(), Attributions: atts})
}

// handleTrace serves the most recent spans from the ring buffer
// (oldest-first). ?n=K limits the response to the last K spans.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	limit, ok := intParam(w, r, "n")
	if !ok {
		return
	}
	spans := s.tracer.Snapshot(limit)
	writeJSON(w, struct {
		Dropped uint64       `json:"dropped"`
		Spans   []trace.Span `json:"spans"`
	}{Dropped: s.tracer.Dropped(), Spans: spans})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
