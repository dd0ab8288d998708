package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"time"

	"autrascale/internal/audit"
	"autrascale/internal/chaos"
	"autrascale/internal/fleet"
	"autrascale/internal/persist"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

// flightCap sizes chaos-replay's flight rings so nothing is ever dropped:
// a journal with gaps cannot prove two replays identical.
const flightCap = 1 << 18

func newFlightTracer() (*trace.Tracer, *trace.FlightRecorder) {
	tracer := trace.New(trace.DefaultCapacity)
	flight := trace.NewFlightRecorder(flightCap)
	tracer.AttachFlight(flight)
	return tracer, flight
}

// replay is one restore of the crash snapshot, run on to the end time.
type replay struct {
	fl        *fleet.Fleet
	flight    *trace.FlightRecorder
	restoreNs float64
	wallNs    float64
	steps     int
}

// runChaosReplay1k: the ordinary-scale fleet under faults — rescale
// retries, degraded decisions, machine kills, cross-job transfer and
// planning storms — and the durability promise end to end: checkpoint,
// crash, restore twice, replay identically.
func runChaosReplay1k(e *env) error {
	// The phases keep their proportions as --seconds scales the horizon:
	// second wave at 1/2, explicit snapshot at 3/4, crash at 1, replay to 5/4.
	crashAt := 60 * float64(e.scaled(120, 8))
	waveAt, snapAt, replayTo := crashAt/2, crashAt*3/4, crashAt*5/4
	perSpec := e.jobs(250)
	const checkpointEvery = 10

	var fl *fleet.Fleet
	var flight *trace.FlightRecorder
	var waves [2][]fleet.JobSpec
	submits := submitTimes{}
	if err := e.setup(cheapSetups, func() error {
		var tracer *trace.Tracer
		tracer, flight = newFlightTracer()
		var err error
		fl, err = fleet.New(fleet.Config{
			TotalCores: 4 * perSpec * 32,
			Seed:       e.derive("fleet", 0),
			Chaos:      chaos.Heavy(),
			Tracer:     tracer,
			Workers:    e.fleetWorkers(),
		})
		waves = [2][]fleet.JobSpec{}
		for _, spec := range workloads.All() {
			specs := fleet.StaggeredJobs(spec, perSpec, 0)
			half := (len(specs) + 1) / 2
			waves[0] = append(waves[0], specs[:half]...)
			waves[1] = append(waves[1], specs[half:]...)
		}
		return err
	}); err != nil {
		return err
	}
	ckptPath := filepath.Join(e.tmp, "checkpoint.json")
	snapPath := filepath.Join(e.tmp, "crash.snapshot.json")
	cp, err := persist.NewCheckpointer(ckptPath, checkpointEvery, fl.PersistState)
	if err != nil {
		return err
	}

	var tickNs []float64
	tick := func() { tickNs = append(tickNs, e.timed("persist.checkpointer_tick", len(tickNs), cp.Tick)) }

	e.beginRegion()
	if err := e.submit(fl, waves[0], submits); err != nil {
		return err
	}
	roundNs := e.roundsUntil(fl, "fleet.round", waveAt, tick)
	if err := e.submit(fl, waves[1], submits); err != nil { // warm starts
		return err
	}
	fullFleetNs := e.roundsUntil(fl, "fleet.round", snapAt, tick)
	var st *persist.FleetState
	captureNs := e.timed("persist.capture", 0, func() { st = fl.PersistState() })
	if e.timed("persist.write_file", 0, func() { err = persist.WriteFile(snapPath, st) }); err != nil {
		return err
	}
	fullFleetNs = append(fullFleetNs, e.roundsUntil(fl, "fleet.round", crashAt, tick)...)
	roundNs = append(roundNs, fullFleetNs...)
	// Crash: the source fleet is abandoned here. Restore the explicit
	// snapshot twice, at one worker and at the default count (in both
	// passes — this is the workload's own determinism proof), and replay.
	var replays [2]replay
	for i, workers := range []int{1, 0} {
		r, err := e.replay(snapPath, workers, replayTo, i)
		if err != nil {
			e.fail("replay %d: %v", i, err)
			return nil
		}
		replays[i] = r
	}
	// Three more restores (not replayed) give the restore timing five samples.
	var restoreNs []float64
	for i := 0; i < 3; i++ {
		var err error
		restoreNs = append(restoreNs, e.timed("fleet.restore", 2+i, func() { _, err = restoreSnapshot(snapPath, 0, nil) }))
		if err != nil {
			e.fail("restore: %v", err)
			return nil
		}
	}
	var ja, jb *audit.Journal
	var errA, errB error
	e.timed("audit.from_records", 0, func() {
		ja, errA = audit.FromRecords(replays[0].flight.Snapshot(0))
		jb, errB = audit.FromRecords(replays[1].flight.Snapshot(0))
	})
	if errA != nil || errB != nil {
		e.fail("replay journals do not load: %v / %v", errA, errB)
		return nil
	}
	var diff audit.DiffResult
	diffNs := e.timed("audit.diff", 0, func() { diff = audit.Diff(ja, jb) })
	e.endRegion()
	if err := cp.Close(); err != nil {
		e.fail("checkpointer: %v", err)
	}

	// Invariants of the durability promise.
	e.op(diff.Identical)
	if !diff.Identical {
		e.fail("the two replays diverged:\n%s", diff.Render())
	}
	for _, f := range []*trace.FlightRecorder{flight, replays[0].flight, replays[1].flight} {
		if f.Dropped() != 0 {
			e.fail("a flight ring dropped %d records; the journals cannot prove determinism", f.Dropped())
		}
	}
	quarantinedAtSnap, modelsAtSnap := map[string]bool{}, map[string]bool{}
	for _, js := range st.Jobs {
		if js.State == string(fleet.StateQuarantined) {
			quarantinedAtSnap[js.Name] = true
		}
		modelsAtSnap[js.Name] = len(js.Library) > 0
	}
	src := e.summarize(fl, "source", nil)
	e.ops += src.steps
	for i, r := range replays {
		s := e.summarize(r.fl, "replay", nil)
		e.ops += s.totalSteps - r.steps
		restoreNs = append(restoreNs, r.restoreNs)
		for _, j := range s.jobs {
			if j.State == fleet.StateQuarantined && !quarantinedAtSnap[j.Name] {
				e.fail("replay %d quarantined %s, which the snapshot held running: %s", i, j.Name, j.Error)
			}
			reports, err := r.fl.Decisions(j.Name)
			if err != nil {
				e.fail("replay %d: %v", i, err)
				continue
			}
			// A restored library means the job never plans cold again (a job
			// whose every session was aborted before the snapshot has none).
			if modelsAtSnap[j.Name] && len(reports) > 0 && strings.Contains(reports[0].Reason, "no prior model") {
				e.fail("replay %d: %s replanned cold after restore: %s", i, j.Name, reports[0].Reason)
			}
		}
	}
	for _, rec := range audit.CanonicalizeCorr(replays[0].flight.Snapshot(0)) {
		blob, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		e.digestf("journal %s", blob)
	}

	var fireNs []float64
	for i, d := range tickNs {
		if (i+1)%checkpointEvery == 0 {
			fireNs = append(fireNs, d)
		}
	}
	written, skipped := cp.Stats()
	// Round, checkpoint and restore timings are reported per layer only:
	// the median round sits between two regimes (replanning rounds and
	// quiet ones), and one storm, nine firing ticks and five restores per
	// run are too few to hold a bound on this box.
	e.putDur("bench.round_p50_ms", "p50", fullFleetNs)
	e.putDur("bench.round_max_ms", "max", roundNs)
	e.putDur("persist.tick_fire_ms_p50", "p50", fireNs)
	e.putDur("persist.capture_ms_p50", "p50", []float64{captureNs})
	e.putDur("persist.restore_ms_p50", "p50", restoreNs)
	e.put("persist.checkpoints_written", float64(written))
	e.put("persist.checkpoints_skipped", float64(skipped))
	e.putDur("audit.diff_ms", "p50", []float64{diffNs})
	e.put("fleet.worker_speedup", replays[0].wallNs/replays[1].wallNs)
	byKind, kills := journalCounts(flight.Snapshot(0))
	e.put("flink.rescale_retries", float64(byKind[trace.KindRescaleAttempt]))
	e.put("chaos.machine_kills", float64(kills))
	e.put("trace.flight_records", float64(flight.Len()))
	e.put("trace.flight_dropped", float64(flight.Dropped()))
	if e.rec != nil {
		e.put("flink.tick_ns", probeTickNs(false))
	}
	e.reportFleet(src, roundNs, submits, e.value("flink.tick_ns"))
	return nil
}

// replay restores the snapshot at path with the given worker count and
// runs the fleet on to untilSec.
func (e *env) replay(path string, workers int, untilSec float64, run int) (replay, error) {
	tracer, flight := newFlightTracer()
	r := replay{flight: flight}
	var err error
	r.restoreNs = e.timed("fleet.restore", run, func() { r.fl, err = restoreSnapshot(path, workers, tracer) })
	if err != nil {
		return r, err
	}
	r.steps = mark(r.fl).totalSteps()
	t := time.Now()
	e.roundsUntil(r.fl, "fleet.replay_round", untilSec, nil)
	r.wallNs = float64(time.Since(t))
	return r, nil
}

// restoreSnapshot reads, verifies and restores the snapshot at path — the
// whole way back.
func restoreSnapshot(path string, workers int, tracer *trace.Tracer) (*fleet.Fleet, error) {
	st, err := persist.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return fleet.Restore(st, fleet.RestoreOptions{Workers: workers, Tracer: tracer})
}
