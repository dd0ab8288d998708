package main

import (
	"bytes"
	"io"
	"time"

	"autrascale/internal/audit"
	"autrascale/internal/chaos"
	"autrascale/internal/fleet"
	"autrascale/internal/metrics"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

// soakWiring selects which telemetry sinks a soak attaches.
type soakWiring struct{ store, tracer bool }

type soakRun struct {
	fl      *fleet.Fleet
	store   *metrics.Store
	flight  *trace.FlightRecorder
	submits submitTimes
}

// buildSoak assembles the telemetry-soak fleet: staggered-rate jobs of all
// four paper workloads under light chaos, one-minute rounds, everything
// submitted at t=0 — with the store, tracer and flight recorder attached
// exactly as metricsd and `autrascale -jobs` attach them.
func buildSoak(e *env, wire soakWiring) (soakRun, error) {
	perSpec := e.jobs(50)
	run := soakRun{submits: submitTimes{}}
	cfg := fleet.Config{
		TotalCores: 4 * perSpec * 32,
		Seed:       e.derive("fleet", 0),
		Chaos:      chaos.Light(),
		Workers:    e.fleetWorkers(),
	}
	if wire.store {
		run.store = metrics.NewStore()
		cfg.Store = run.store
	}
	if wire.tracer {
		cfg.Tracer = trace.New(trace.DefaultCapacity)
		run.flight = trace.NewFlightRecorder(0)
		cfg.Tracer.AttachFlight(run.flight)
	}
	fl, err := fleet.New(cfg)
	if err != nil {
		return run, err
	}
	run.fl = fl
	for _, spec := range workloads.All() {
		if err := e.submit(fl, fleet.StaggeredJobs(spec, perSpec, 0), run.submits); err != nil {
			return run, err
		}
	}
	return run, nil
}

// runTelemetrySoak: the production wiring nothing else measures. The
// write path (Store.Record on every tick, flight records on every
// decision) sits beside the read path (exposition, journal decode,
// attribution), so trading one for the other shows.
func runTelemetrySoak(e *env) error {
	horizon := 60 * float64(e.scaled(110, 8))
	var run soakRun
	if err := e.setup(cheapSetups, func() (err error) {
		run, err = buildSoak(e, soakWiring{store: true, tracer: true})
		return
	}); err != nil {
		return err
	}

	e.beginRegion()
	roundNs := e.roundsUntil(run.fl, "fleet.round", horizon, nil)
	e.endRegion()

	// Read side, on the final state.
	var scrapeNs []float64
	var expo bytes.Buffer
	for i := 0; i < 50; i++ {
		w := io.Discard
		if i == 0 {
			w = &expo // keep one rendering to validate
		}
		var err error
		scrapeNs = append(scrapeNs, e.timed("metrics.exposition", i, func() { err = run.store.WriteExposition(w) }))
		e.op(err == nil)
		if err != nil {
			e.fail("exposition: %v", err)
		}
	}
	samples, err := checkPromText(expo.Bytes())
	if err != nil || samples == 0 {
		e.fail("exposition is not Prometheus text (%d samples): %v", samples, err)
	}

	var journal bytes.Buffer
	var jsonlNs, readNs, attrNs, auditNs []float64
	for i := 0; i < 15; i++ {
		journal.Reset()
		var err error
		jsonlNs = append(jsonlNs, e.timed("trace.write_jsonl", i, func() { err = run.flight.WriteJSONL(&journal, 0) }))
		if err != nil {
			return err
		}
		var j *audit.Journal
		read := e.timed("audit.read_journal", i, func() { j, err = audit.ReadJournal(bytes.NewReader(journal.Bytes())) })
		e.op(err == nil)
		if err != nil {
			e.fail("the flight journal does not decode: %v", err)
			break
		}
		var atts []audit.Attribution
		attr := e.timed("audit.attributions", i, func() { atts = j.Attributions() })
		var rep audit.SLOReport
		slo := e.timed("audit.slo_audit", i, func() { rep = audit.SLOAudit(j) })
		if i == 0 {
			if len(j.Records) != run.flight.Len() {
				e.fail("journal decoded %d records, the ring holds %d", len(j.Records), run.flight.Len())
			}
			e.digestf("journal records=%d missing=%d attributions=%d slo-jobs=%d",
				len(j.Records), j.MissingRecords(), len(atts), len(rep.Jobs))
		}
		readNs, attrNs = append(readNs, read), append(attrNs, attr)
		auditNs = append(auditNs, read+attr+slo)
	}

	s := e.summarize(run.fl, "soak", nil)
	e.ops += s.steps
	e.putDur("round_p50_ms", "p50", roundNs)
	e.putDur("round_max_ms", "max", roundNs)
	e.putDur("scrape_ms", "p50", scrapeNs)
	e.putDur("audit_s", "p50", auditNs)
	e.putDur("metrics.exposition_ms_p50", "p50", scrapeNs)
	e.put("metrics.exposition_bytes", float64(expo.Len()))
	e.put("metrics.series", float64(run.store.Len()))
	e.put("trace.flight_records", float64(run.flight.Len()))
	e.put("trace.flight_dropped", float64(run.flight.Dropped()))
	e.putDur("trace.write_jsonl_ms", "p50", jsonlNs)
	e.put("trace.journal_bytes", float64(journal.Len()))
	e.putDur("audit.read_journal_ms", "p50", readNs)
	e.putDur("audit.attributions_ms", "p50", attrNs)
	if ms := e.value("audit.read_journal_ms"); ms > 0 {
		e.put("audit.decode_mb_per_s", float64(journal.Len())/(1<<20)/(ms/1e3))
	}
	byKind, kills := journalCounts(run.flight.Snapshot(0))
	e.put("flink.rescale_retries", float64(byKind[trace.KindRescaleAttempt]))
	e.put("chaos.machine_kills", float64(kills))

	if e.rec != nil {
		e.put("flink.tick_ns", probeTickNs(false))
		e.put("flink.tick_store_ns", probeTickNs(true))
		e.put("metrics.record_ns", probeRecordNs())
		// Attribute the telemetry overhead: the same soak bare, with the
		// store only, and with the tracer only.
		walls := map[soakWiring]float64{}
		for _, wire := range []soakWiring{{}, {store: true}, {tracer: true}} {
			variant, err := buildSoak(e, wire)
			if err != nil {
				return err
			}
			t := time.Now()
			variant.fl.RunUntil(horizon)
			walls[wire] = time.Since(t).Seconds()
		}
		if bare := walls[soakWiring{}]; bare > 0 {
			e.put("metrics.store_overhead_x", walls[soakWiring{store: true}]/bare)
			e.put("trace.overhead_share", walls[soakWiring{tracer: true}]/bare-1)
		}
	}
	e.reportFleet(s, roundNs, run.submits, e.value("flink.tick_store_ns"))
	return nil
}
