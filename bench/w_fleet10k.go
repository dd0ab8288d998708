package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"

	"autrascale/internal/fleet"
	"autrascale/internal/persist"
	"autrascale/internal/workloads"
)

// fleet10k is the BenchmarkFleetTick10k recipe: 10,000 wordcount jobs on
// a tick of 1% of the policy interval (~100 jobs due per round), 16 cold
// donors planned to t=1800, the rest admitted warm in batches of 100 with
// a round between so due times spread, then 600 s to settle.
func buildFleet10k(e *env) (*fleet.Fleet, submitTimes, error) {
	const roundSec, donors, batch = 0.6, 16, 100
	jobs := e.jobs(10000)
	fl, err := fleet.New(fleet.Config{
		TotalCores: jobs*32 + 1024,
		RoundSec:   roundSec,
		Seed:       e.derive("fleet", 0),
		Workers:    e.fleetWorkers(),
	})
	if err != nil {
		return nil, nil, err
	}
	specs := fleet.StaggeredJobs(workloads.WordCount(), jobs, 0)
	times := submitTimes{}
	cold := min(donors, len(specs))
	if err := e.submit(fl, specs[:cold], times); err != nil {
		return nil, nil, err
	}
	fl.RunUntil(1800)
	for i := cold; i < len(specs); {
		end := min(i+batch, len(specs))
		if err := e.submit(fl, specs[i:end], times); err != nil {
			return nil, nil, err
		}
		i = end
		fl.Round()
	}
	fl.RunUntil(fl.Now() + 600)
	return fl, times, nil
}

// checkAllRunning fails the pass when any job left the running state: no
// chaos is injected here, so a quarantine is a controller error.
func (e *env) checkAllRunning(s fleetSummary, label string) {
	for _, j := range s.jobs {
		if j.State != fleet.StateRunning {
			e.fail("%s: job %s is %s (%s)", label, j.Name, j.State, j.Error)
			e.op(false)
			return
		}
	}
}

// runFleetSteady10k: the idle-heavy control-plane steady state. Tick,
// Controller.Step (no replan) and Round's select/spawn/barrier dominate;
// planning is a few percent.
func runFleetSteady10k(e *env) error {
	var fl *fleet.Fleet
	var submits submitTimes
	if err := e.setup(1, func() (err error) { fl, submits, err = buildFleet10k(e); return }); err != nil {
		return err
	}
	before := mark(fl)
	n := e.scaled(3100, 8)

	e.beginRegion()
	roundNs := e.rounds(fl, "fleet.round", n, nil)
	e.endRegion()

	s := e.summarize(fl, "steady", before)
	e.ops += s.steps
	e.checkAllRunning(s, "steady")
	e.putDur("round_p50_ms", "p50", roundNs)
	e.putDur("round_p99_ms", "p99", roundNs)
	if e.rec != nil {
		e.put("flink.tick_ns", probeTickNs(false))
		e.put("core.step_idle_us_p50", probeStepIdleUs())
		e.probeFleetReads(fl)
	}
	e.reportFleet(s, roundNs, submits, e.value("flink.tick_ns"))
	return nil
}

// runSnapshotCycle10k: persist and fleet/persist.go both ways — capture,
// encode and write beside read, decode and restore — so a gain on one
// side that costs the other shows.
func runSnapshotCycle10k(e *env) error {
	var fl *fleet.Fleet
	var submits submitTimes
	if err := e.setup(1, func() (err error) { fl, submits, err = buildFleet10k(e); return }); err != nil {
		return err
	}
	cycles := e.scaled(4, 8)
	const roundsPerCycle = 20
	path := filepath.Join(e.tmp, "fleet.snapshot.json")
	ns := map[string][]float64{}
	var roundNs []float64
	var snapBytes int64
	srcSteps := mark(fl).totalSteps()

	e.beginRegion()
	for c := 0; c < cycles; c++ {
		endCycle := e.span("cycle", c)
		want := fl.Snapshot()

		// The capture is what stalls the fleet and is cheap to repeat: five
		// per cycle steady its median. The last one is written.
		var st *persist.FleetState
		var capture float64
		for k := 0; k < 5; k++ {
			capture = e.timed("persist.capture", c, func() { st = fl.PersistState() })
			ns["capture"] = append(ns["capture"], capture)
		}
		var err error
		write := e.timed("persist.write_file", c, func() { err = persist.WriteFile(path, st) })
		if err != nil {
			return err
		}
		ns["snapshot"] = append(ns["snapshot"], capture+write)
		if e.rec != nil {
			// The traced pass splits WriteFile and ReadFile from outside:
			// the same state encoded to a sink, the same bytes decoded from
			// memory; the remainder is file IO (fsync + rename, read).
			encode := e.timed("persist.encode", c, func() { err = persist.Encode(io.Discard, st) })
			if err != nil {
				return err
			}
			ns["encode"] = append(ns["encode"], encode)
			ns["write"] = append(ns["write"], max(write-encode, 0))
		}
		if info, err := os.Stat(path); err == nil {
			snapBytes = info.Size()
		}

		var back *persist.FleetState
		read := e.timed("persist.read_file", c, func() { back, err = persist.ReadFile(path) })
		if err != nil {
			e.fail("cycle %d: snapshot does not read back: %v", c, err)
			return nil
		}
		if e.rec != nil {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			ns["decode"] = append(ns["decode"], e.timed("persist.decode", c, func() {
				_, err = persist.Decode(bytes.NewReader(blob))
			}))
			if err != nil {
				return err
			}
		}
		var restored *fleet.Fleet
		restore := e.timed("fleet.restore", c, func() {
			restored, err = fleet.Restore(back, fleet.RestoreOptions{Workers: e.fleetWorkers()})
		})
		e.op(err == nil)
		if err != nil {
			e.fail("cycle %d: restore: %v", c, err)
			return nil
		}
		ns["restore_only"] = append(ns["restore_only"], restore)
		ns["restore"] = append(ns["restore"], read+restore)

		// The restored fleet must be the source: same jobs, clock and
		// capacity — and it must keep running.
		got := restored.Snapshot()
		if got.Jobs != want.Jobs || got.NowSec != want.NowSec || got.UsedCores != want.UsedCores {
			e.fail("cycle %d: restored fleet has %d jobs, t=%v, %d cores; source had %d, t=%v, %d",
				c, got.Jobs, got.NowSec, got.UsedCores, want.Jobs, want.NowSec, want.UsedCores)
		}
		fl = restored
		roundNs = append(roundNs, e.rounds(fl, "fleet.round", roundsPerCycle, nil)...)
		if q := fl.Snapshot().Health.Quarantined; q != 0 {
			e.fail("cycle %d: %d jobs quarantined after restore", c, q)
		}
		endCycle(0)
	}
	e.endRegion()

	// Restored fleets start fresh decision histories and engine clocks, so
	// the region's steps come from the persisted step counters and its
	// simulated time from the policy windows those steps ran; plan counts
	// are not reported (each cycle's fleet is dropped with its history).
	s := e.summarize(fl, "cycled", nil)
	s.steps = s.totalSteps - srcSteps
	s.ticks = float64(s.steps) * 60
	s.plans = planStats{}
	e.ops += s.steps
	e.checkAllRunning(s, "cycled")
	e.putDur("checkpoint_stall_ms", "p50", ns["capture"])
	e.putDur("snapshot_s", "p50", ns["snapshot"])
	e.putDur("restore_s", "p50", ns["restore"])
	e.putDur("persist.capture_ms_p50", "p50", ns["capture"])
	e.putDur("persist.encode_ms_p50", "p50", ns["encode"])
	e.putDur("persist.write_ms_p50", "p50", ns["write"])
	e.putDur("persist.decode_ms_p50", "p50", ns["decode"])
	e.putDur("persist.restore_ms_p50", "p50", ns["restore_only"])
	e.put("persist.snapshot_bytes", float64(snapBytes))
	e.put("persist.bytes_per_job", float64(snapBytes)/float64(len(s.jobs)))
	e.reportFleet(s, roundNs, submits, e.value("flink.tick_ns"))
	return nil
}
