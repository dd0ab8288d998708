package main

import (
	"time"

	"autrascale/internal/core"
	"autrascale/internal/fleet"
	"autrascale/internal/stat"
	"autrascale/internal/trace"
)

// fleetWorkers is the traced pass's worker count: one worker makes a
// round's self time exactly Round − ΣPlan (and is the single-threaded
// baseline); the untraced pass keeps the fleet's default.
func (e *env) fleetWorkers() int {
	if e.rec != nil {
		return 1
	}
	return 0
}

// jobPolicy returns the traced pass's per-job policy builder — the
// default BO planner behind the plan-timing decorator — and nil in the
// untraced pass.
func (e *env) jobPolicy() fleet.PolicyBuilder {
	if e.rec == nil {
		return nil
	}
	run := 0
	return func(pe fleet.PolicyEnv) (core.Policy, error) {
		run++
		return e.wrapPolicy(core.BOConfig{
			TargetLatencyMS: pe.TargetLatencyMS, MaxIterations: pe.MaxIterations,
			Seed: pe.Seed, Library: pe.Library, Tracer: pe.Tracer,
		}, run)
	}
}

// submitTimes collects per-Submit wall times by job name, split into cold
// and warm once the fleet says which submissions warm-started.
type submitTimes map[string]float64

// submit admits the jobs, timing each Submit.
func (e *env) submit(fl *fleet.Fleet, specs []fleet.JobSpec, times submitTimes) error {
	pol := e.jobPolicy()
	for _, js := range specs {
		js.Policy = pol
		var err error
		times[js.Name] = e.timed("fleet.submit", len(times), func() { err = fl.Submit(js) })
		if err != nil {
			return err
		}
	}
	return nil
}

// rounds runs n timed rounds, each a span called name, giving tick a turn
// after every round (nil: none). It returns the per-round wall times.
func (e *env) rounds(fl *fleet.Fleet, name string, n int, tick func()) []float64 {
	ns := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ns = append(ns, e.timed(name, i, fl.Round))
		if tick != nil {
			tick()
		}
	}
	return ns
}

// roundsUntil runs timed rounds until the fleet clock reaches untilSec.
func (e *env) roundsUntil(fl *fleet.Fleet, name string, untilSec float64, tick func()) []float64 {
	var ns []float64
	for fl.Now() < untilSec {
		ns = append(ns, e.rounds(fl, name, 1, tick)...)
	}
	return ns
}

// fleetMark remembers, per job, where a timed region started, so counts
// read afterwards can be charged to the region alone.
type fleetMark map[string]jobMark

type jobMark struct {
	steps, decisions int
	simSec           float64
}

// mark reads every job's counters — the "before" half of a region.
func mark(fl *fleet.Fleet) fleetMark {
	jobs, _ := fl.JobsPage(0, 0)
	m := make(fleetMark, len(jobs))
	for _, j := range jobs {
		m[j.Name] = jobMark{steps: j.Steps, decisions: j.Decisions, simSec: j.SimulatedSec}
	}
	return m
}

func (m fleetMark) totalSteps() int {
	n := 0
	for _, j := range m {
		n += j.steps
	}
	return n
}

// fleetSummary is what the harness reads off a fleet after a run. steps,
// ticks and plans cover the region since the mark; totalSteps the fleet's
// whole life.
type fleetSummary struct {
	status     fleet.Status
	jobs       []fleet.JobStatus
	steps      int
	totalSteps int
	ticks      float64
	plans      planStats
	// coldTrials/warmTrials are the trial counts of cold- and warm-started
	// jobs' first planning sessions.
	coldTrials, warmTrials []float64
}

// summarize walks the fleet once: job statuses, the decision reports made
// since the mark (nil: all of them), and the digest lines (per job: final
// parallelism vector, steps, decisions by action, restarts, engine clock).
func (e *env) summarize(fl *fleet.Fleet, label string, since fleetMark) fleetSummary {
	s := fleetSummary{status: fl.Snapshot()}
	s.jobs, _ = fl.JobsPage(0, 0)
	e.digestf("%s t=%.1f rounds=%d jobs=%d used=%d", label, s.status.NowSec, s.status.Rounds, s.status.Jobs, s.status.UsedCores)
	for _, j := range s.jobs {
		from := since[j.Name]
		s.totalSteps += j.Steps
		s.steps += j.Steps - from.steps
		s.ticks += j.SimulatedSec - from.simSec
		reports, err := fl.Decisions(j.Name)
		if err != nil {
			e.fail("%s: decisions of %s: %v", label, j.Name, err)
			continue
		}
		counts := actionCounts{}
		for _, r := range reports {
			counts[r.Action]++
		}
		if len(reports) > 0 {
			if first := float64(reports[0].Trials); j.WarmStarted {
				s.warmTrials = append(s.warmTrials, first)
			} else {
				s.coldTrials = append(s.coldTrials, first)
			}
		}
		if from.decisions <= len(reports) { // else the bounded history wrapped: count it all
			reports = reports[from.decisions:]
		}
		s.plans.add(reports)
		var par any
		if events, err := fl.Events(j.Name); err == nil && len(events) > 0 {
			par = events[len(events)-1].Par
		}
		e.digestf("%s %s %s par=%v steps=%d %s restarts=%d t=%.0f", label, j.Name, j.State,
			par, j.Steps, counts, j.Restarts, j.SimulatedSec)
	}
	return s
}

// reportFleet records the metrics every fleet workload shares; tickNs is
// the probed cost of one engine tick as the workload wires its engines.
func (e *env) reportFleet(s fleetSummary, roundNs []float64, submits submitTimes, tickNs float64) {
	s.plans.report(e)
	e.put("flink.ticks", s.ticks)
	var restarts float64
	warm := 0
	var coldNs, warmNs []float64
	for _, j := range s.jobs {
		restarts += float64(j.Restarts)
		if j.WarmStarted {
			warm++
		}
		if d, ok := submits[j.Name]; ok {
			if j.WarmStarted {
				warmNs = append(warmNs, d)
			} else {
				coldNs = append(coldNs, d)
			}
		}
	}
	e.put("flink.rescales", restarts)
	if wall := e.value("wall_s"); wall > 0 {
		e.put("flink.sim_s_per_wall_s", s.ticks/wall)
	}
	e.put("fleet.rounds", float64(len(roundNs)))
	if len(roundNs) > 0 {
		e.put("fleet.due_per_round_mean", float64(s.steps)/float64(len(roundNs)))
	}
	e.putDur("fleet.round_busy_s", "sum", roundNs)
	e.put("fleet.quarantined", float64(s.status.Health.Quarantined))
	if n := len(s.jobs); n > 0 {
		e.put("transfer.warm_start_share", float64(warm)/float64(n))
		e.put("slo.violation_share", float64(s.status.Health.Degraded+s.status.Health.Burning)/float64(n))
	}
	if len(s.coldTrials) > 0 && len(s.warmTrials) > 0 {
		e.put("transfer.trials_saved", stat.Mean(s.coldTrials)-stat.Mean(s.warmTrials))
	}
	e.putDur("fleet.submit_cold_us_p50", "p50", coldNs)
	e.putDur("fleet.submit_warm_us_p50", "p50", warmNs)
	if e.rec != nil {
		t := e.totals()
		if r := t["fleet.round"]; r != nil {
			e.put("fleet.round_self_s", float64(r.SelfNs)/1e9)
		}
		e.planSpans(tickNs)
	}
}

// probeFleetReads times the two fleet reads behind metricsd's hottest
// routes: the O(1) summary and a 50-job page.
func (e *env) probeFleetReads(fl *fleet.Fleet) {
	var snapNs, pageNs []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		fl.Snapshot()
		snapNs = append(snapNs, float64(time.Since(t)))
		t = time.Now()
		fl.JobsPage(i*50, 50)
		pageNs = append(pageNs, float64(time.Since(t)))
	}
	e.putDur("fleet.snapshot_call_us_p50", "p50", snapNs)
	e.putDur("fleet.jobs_page_us_p50", "p50", pageNs)
}

// journalCounts tallies a flight journal by record kind.
func journalCounts(recs []trace.Record) (byKind map[trace.RecordKind]int, kills int) {
	byKind = map[trace.RecordKind]int{}
	for _, r := range recs {
		byKind[r.Kind]++
		if down, _ := r.Attrs["down"].(bool); r.Kind == trace.KindChaosMachine && down {
			kills++
		}
	}
	return byKind, kills
}
