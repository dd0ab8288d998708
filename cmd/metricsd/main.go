// Command metricsd runs a workload simulation under the AuTraScale
// controller and serves its metrics over HTTP — the Monitor stage of the
// paper's MAPE loop made scrapeable:
//
//	/metrics          Prometheus text exposition: every simulator series
//	                  plus controller counters/histograms and the daemon's
//	                  own runtime metrics (autrascale.runtime.*)
//	/status           JSON snapshot (current parallelism, rates, events)
//	/debug/decisions  JSON decision reports (why each configuration won)
//	/debug/fleet      fleet mode: summary + paginated per-job listing
//	                  (?offset=&limit=, streamed)
//	/debug/health     SLO burn-rate health: the fleet aggregate (fleet
//	                  mode) or the single job's tracker report
//	/debug/flight     the flight recorder's journal as JSONL (?n=K)
//	/debug/audit      decision attribution over the live ring: each
//	                  decision's causal chain, summarized (?job=NAME)
//	/debug/trace      recent spans from the decision-path tracer
//	/debug/pprof/     standard Go profiling endpoints
//	/healthz          liveness
//
// Fleet mode also serves the versioned admin API (see docs/durability.md):
//
//	/api/v1/jobs         GET list, POST submit a declarative job spec
//	/api/v1/jobs/drain   POST {"name": JOB} graceful retirement
//	/api/v1/jobs/remove  POST {"name": JOB} deletion
//	/api/v1/snapshot     POST write a durable snapshot to -snapshot,
//	                     GET download one (restorable via -restore)
//	/api/v1/library      GET shared warm-start libraries by signature
//
// The simulation advances in real time (one simulated second per
// -tick-interval), so a scraper watches the controller converge live.
//
// With -jobs N the daemon runs a whole fleet instead of a single job: N
// staggered-rate copies of the workload under one sharded scheduler with
// cross-job model transfer (see docs/fleet.md). /debug/fleet serves the
// fleet snapshot and /debug/decisions takes ?job=NAME.
//
// Usage:
//
//	metricsd [-addr :9090] [-workload wordcount] [-latency ms]
//	         [-tick-interval 10ms] [-seed N] [-trace-capacity 2048]
//	         [-flight-cap 4096] [-jobs N] [-restore snapshot.json]
//	         [-snapshot path.json] [-checkpoint-every N]
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
	"sync"
	"syscall"
	"time"

	"autrascale/internal/audit"
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/fleet"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

type server struct {
	mu     sync.Mutex
	engine *flink.Engine
	ctl    *core.Controller
	store  *metrics.Store
	tracer *trace.Tracer
	flight *trace.FlightRecorder
	err    error
	// fleet is set in -jobs mode; engine/ctl are nil then (the fleet owns
	// its jobs' engines and controllers, and has its own lock).
	fleet *fleet.Fleet
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
	Workload      string
	LatencyMS     float64
	Seed          uint64
	TraceCapacity int
	// FlightCap sizes the flight recorder's record ring (default: the
	// recorder's own default).
	FlightCap int
	NoNoise   bool
	// Schedule overrides the workload's constant default rate (tests use
	// a step schedule to exercise the transfer path).
	Schedule kafka.RateSchedule
	// Jobs > 0 switches to fleet mode: that many staggered-rate copies of
	// the workload under one scheduler with cross-job model transfer.
	Jobs int
	// Restore boots the daemon from a fleet snapshot instead of
	// submitting fresh jobs (implies fleet mode; Jobs is ignored).
	Restore string
	// SnapshotPath is where POST /api/v1/snapshot and periodic
	// checkpoints write.
	SnapshotPath string
	// CheckpointEvery persists the fleet every N rounds to SnapshotPath
	// (0: only on demand via the API).
	CheckpointEvery int
}

// newServer assembles the simulator, controller, tracer, and store. It
// does not start the drive loop or listen — callers (main, tests) decide.
func newServer(cfg serverConfig) (*server, workloads.Spec, error) {
	spec, found := workloads.ByName(cfg.Workload)
	if !found {
		return nil, spec, fmt.Errorf("metricsd: unknown workload %q", cfg.Workload)
	}
	if cfg.LatencyMS <= 0 {
		cfg.LatencyMS = spec.TargetLatencyMS
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = trace.DefaultCapacity
	}

	store := metrics.NewStore()
	tracer := trace.New(cfg.TraceCapacity)
	flight := trace.NewFlightRecorder(cfg.FlightCap)
	tracer.AttachFlight(flight)

	if cfg.Restore != "" {
		st, err := persist.ReadFile(cfg.Restore)
		if err != nil {
			return nil, spec, fmt.Errorf("metricsd: %w", err)
		}
		fl, err := fleet.Restore(st, fleet.RestoreOptions{Store: store, Tracer: tracer})
		if err != nil {
			return nil, spec, fmt.Errorf("metricsd: %w", err)
		}
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
		srv, err := fleetServer(cfg, fl, store, tracer, flight)
		return srv, spec, err
	}

	if cfg.Jobs > 0 {
		fl, err := fleet.New(fleet.Config{
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
		srv, err := fleetServer(cfg, fl, store, tracer, flight)
		return srv, spec, err
	}

	engine, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Store:    store,
		Seed:     cfg.Seed,
		NoNoise:  cfg.NoNoise,
		Tracer:   tracer,
		Schedule: cfg.Schedule,
	})
	if err != nil {
		return nil, spec, err
	}
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: cfg.LatencyMS,
		MaxIterations:   10,
		Seed:            cfg.Seed,
		Tracer:          tracer,
	})
	if err != nil {
		return nil, spec, err
	}
	return &server{engine: engine, ctl: ctl, store: store, tracer: tracer, flight: flight}, spec, nil
}

// fleetServer finishes assembling a fleet-mode server: durability wiring
// (snapshot path, periodic checkpointer) is shared by the fresh-submit
// and restore paths.
func fleetServer(cfg serverConfig, fl *fleet.Fleet, store *metrics.Store,
	tracer *trace.Tracer, flight *trace.FlightRecorder) (*server, error) {
	srv := &server{
		fleet: fl, store: store, tracer: tracer, flight: flight,
		snapshotPath: cfg.SnapshotPath,
	}
	if cfg.SnapshotPath != "" && cfg.CheckpointEvery > 0 {
		cp, err := persist.NewCheckpointer(cfg.SnapshotPath, cfg.CheckpointEvery, fl.PersistState)
		if err != nil {
			return nil, err
		}
		srv.checkpointer = cp
	}
	return srv, nil
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
	var (
		addr      = flag.String("addr", ":9090", "listen address")
		workload  = flag.String("workload", "wordcount", "workload: wordcount, yahoo, nexmark-q5, nexmark-q11")
		latency   = flag.Float64("latency", 0, "target latency ms (default: the workload's)")
		tick      = flag.Duration("tick-interval", 10*time.Millisecond, "wall time per simulated second")
		seed      = flag.Uint64("seed", 1, "random seed")
		traceCap  = flag.Int("trace-capacity", trace.DefaultCapacity, "span ring-buffer capacity")
		flightCap = flag.Int("flight-cap", 0, "flight recorder ring capacity (0: default)")
		jobs      = flag.Int("jobs", 0, "fleet mode: run N staggered-rate copies of the workload")
		restore   = flag.String("restore", "", "boot from a fleet snapshot file (implies fleet mode)")
		snapshot  = flag.String("snapshot", "", "path for POST /api/v1/snapshot and periodic checkpoints")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint the fleet to -snapshot every N rounds (0: on demand only)")
	)
	flag.Parse()

	srv, spec, err := newServer(serverConfig{
		Workload:        *workload,
		LatencyMS:       *latency,
		Seed:            *seed,
		TraceCapacity:   *traceCap,
		FlightCap:       *flightCap,
		Jobs:            *jobs,
		Restore:         *restore,
		SnapshotPath:    *snapshot,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case *restore != "":
		log.Printf("metricsd: fleet restored from %s on %s (%d jobs, t=%.0fs)",
			*restore, *addr, len(srv.fleet.JobNames()), srv.fleet.Now())
	case *jobs > 0:
		log.Printf("metricsd: fleet of %d %s jobs on %s", *jobs, spec.Name, *addr)
	default:
		log.Printf("metricsd: %s on %s (latency target %.0f ms)", spec.Name, *addr, *latency)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = srv.run(ctx, *addr, *tick)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("metricsd: shut down")
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

// run binds addr, drives the simulation and serves until ctx is cancelled
// (SIGINT/SIGTERM in main), then shuts down in the order that lands the
// last snapshot: the drive loop stops, so no round is in flight; the HTTP
// server drains its requests; and the checkpointer's Close writes the
// final synchronous checkpoint of the fleet's terminal state. A daemon
// that cannot bind returns before it drives or writes anything, so a
// second instance started by mistake never overwrites the first one's
// snapshot.
func (s *server) run(ctx context.Context, addr string, tick time.Duration) error {
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

// drive advances the controller continuously, one MAPE step at a time,
// pacing simulated seconds against wall time, until ctx is cancelled. In
// fleet mode it advances the whole fleet one round at a time instead.
func (s *server) drive(ctx context.Context, tick time.Duration) {
	if s.fleet != nil {
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
		return
	}
	for ctx.Err() == nil {
		s.mu.Lock()
		before := s.engine.Now()
		_, err := s.ctl.Step()
		advanced := s.engine.Now() - before
		if err != nil {
			s.err = err
		}
		s.mu.Unlock()
		if err != nil {
			log.Printf("metricsd: controller error: %v", err)
			return
		}
		sleep(ctx, time.Duration(advanced)*tick)
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// statusSnapshot is the fully-materialized /status payload. Every field
// is copied out of the simulation under the mutex; encoding happens
// outside the critical section so a slow scraper cannot stall the tick
// loop.
type statusSnapshot struct {
	SimulatedSec float64                    `json:"simulated_sec"`
	Parallelism  dataflow.ParallelismVector `json:"parallelism"`
	Restarts     int                        `json:"restarts"`
	LagRecords   float64                    `json:"lag_records"`
	Throughput   float64                    `json:"throughput"`
	LatencyMS    float64                    `json:"latency_ms"`
	Events       []core.Event               `json:"events"`
	ModelRates   []float64                  `json:"model_rates"`
	Error        string                     `json:"error,omitempty"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		writeJSON(w, s.fleet.Snapshot())
		return
	}
	s.mu.Lock()
	m := s.engine.Measure()
	snap := statusSnapshot{
		SimulatedSec: s.engine.Now(),
		Parallelism:  s.engine.Parallelism(),
		Restarts:     s.engine.Restarts(),
		LagRecords:   s.engine.Topic().Lag(),
		Throughput:   m.ThroughputRPS,
		LatencyMS:    m.ProcLatencyMS,
		Events:       s.ctl.Events(),
		ModelRates:   s.ctl.Library().Rates(),
	}
	if s.err != nil {
		snap.Error = s.err.Error()
	}
	s.mu.Unlock()
	writeJSON(w, snap)
}

// handleDecisions serves the controller's retained decision reports —
// the full "why this configuration" record per replan/step, newest last.
// ?n=K limits the response to the last K reports. In fleet mode the job
// is selected with ?job=NAME.
func (s *server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	var reports []core.DecisionReport
	if s.fleet != nil {
		job := r.URL.Query().Get("job")
		if job == "" {
			w.WriteHeader(http.StatusBadRequest)
			writeJSON(w, struct {
				Error string   `json:"error"`
				Jobs  []string `json:"jobs"`
			}{Error: "fleet mode: select a job with ?job=NAME", Jobs: s.fleet.JobNames()})
			return
		}
		var err error
		if reports, err = s.fleet.Decisions(job); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	} else {
		s.mu.Lock()
		reports = s.ctl.Decisions()
		s.mu.Unlock()
	}
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(reports) {
		reports = reports[len(reports)-n:]
	}
	writeJSON(w, reports)
}

// intParam parses a non-negative integer query parameter. Malformed,
// negative, or overflowing values get a 400 — never a panic or a silent
// full dump. An absent parameter yields def.
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
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
	if s.fleet == nil {
		http.Error(w, "fleet mode disabled (run with -jobs N)", http.StatusNotFound)
		return
	}
	offset, ok := intParam(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", 0)
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
// aggregate in fleet mode (O(its top-K burn ranking), never a walk of
// the jobs), or the single job's tracker report otherwise.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		writeJSON(w, s.fleet.HealthSnapshot())
		return
	}
	s.mu.Lock()
	h := s.ctl.SLOHealth()
	s.mu.Unlock()
	writeJSON(w, h)
}

// handleFlight dumps the flight recorder's journal as JSONL, oldest
// first. ?n=K keeps only the most recent K records.
func (s *server) handleFlight(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n > 0 {
		limit = n
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
	limit := 0
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n > 0 {
		limit = n
	}
	// The tracer has its own lock; the simulation mutex is not needed.
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
