package main

import (
	"time"

	"autrascale/internal/core"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/slo"
	"autrascale/internal/workloads"
)

// planStormHorizonSec is how long every plan-storm job runs.
const planStormHorizonSec = 7200

// stormSchedule is the paper's scenario as a rate schedule: a steady
// start, a 40% surge, a drop below the start, and a partial recovery —
// three rate changes past the controller's 10% trigger.
func stormSchedule(base float64) kafka.RateSchedule {
	return kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: base}, {FromSec: 1800, Rate: 1.4 * base},
		{FromSec: 3600, Rate: 0.7 * base}, {FromSec: 5400, Rate: 1.2 * base},
	}}
}

type stormRun struct {
	engine *flink.Engine
	ctl    *core.Controller
}

// buildStormRun assembles one single-job run: a paper workload on the
// storm schedule under a default controller (behind the plan-timing
// decorator in the traced pass).
func buildStormRun(e *env, spec workloads.Spec, seed uint64, run int) (stormRun, error) {
	eng, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Seed: seed, Schedule: stormSchedule(spec.DefaultRateRPS),
	})
	if err != nil {
		return stormRun{}, err
	}
	pol, err := e.wrapPolicy(core.BOConfig{TargetLatencyMS: spec.TargetLatencyMS, Seed: seed}, run)
	if err != nil {
		return stormRun{}, err
	}
	ctl, err := core.NewController(eng, core.ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS, Seed: seed, Policy: pol,
	})
	return stormRun{engine: eng, ctl: ctl}, err
}

// runPlanStorm: many independent single-job runs, one goroutine, no
// fleet, store or tracer — planning (Algorithm 1, then Algorithm 2 on
// each rate change) and the simulated trial windows do all the work.
func runPlanStorm(e *env) error {
	specs := workloads.All()
	perSpec := e.jobs(e.scaled(256, 8))
	var runs []stormRun
	err := e.setup(cheapSetups, func() error {
		runs = runs[:0]
		for i := 0; i < perSpec; i++ {
			for w, spec := range specs {
				r, err := buildStormRun(e, spec, e.derive(spec.Name, i), i*len(specs)+w)
				if err != nil {
					return err
				}
				runs = append(runs, r)
			}
		}
		// One throwaway run pages in the planner before the clock starts.
		warm, err := buildStormRun(e, specs[0], e.derive("warm", 0), -1)
		if err != nil {
			return err
		}
		_, err = warm.ctl.Run(planStormHorizonSec)
		return err
	})
	if err != nil {
		return err
	}

	var planNs, idleNs []float64
	var stats planStats
	var ticks, rescales float64
	unhealthy := 0
	steps := make([]int, len(runs))
	e.beginRegion()
	for i, r := range runs {
		endRun := e.span("run", i)
		for r.engine.Now() < planStormHorizonSec {
			steps[i]++
			endStep := e.span("core.step", i)
			t := time.Now()
			ev, err := r.ctl.Step()
			d := float64(time.Since(t))
			endStep(0)
			e.op(err == nil)
			if err != nil {
				e.fail("run %d (%s): step: %v", i, r.engine.JobName(), err)
				break
			}
			if ev.Action != core.ActionNone {
				planNs = append(planNs, d)
			} else {
				idleNs = append(idleNs, d)
			}
		}
		endRun(0)
	}
	e.endRegion()

	for i, r := range runs {
		reports := r.ctl.Decisions()
		stats.add(reports)
		counts := actionCounts{}
		for _, rep := range reports {
			counts[rep.Action]++
		}
		if len(reports) == 0 {
			e.fail("run %d (%s) never planned", i, r.engine.JobName())
		}
		if r.ctl.SLOHealth().State != slo.StateHealthy {
			unhealthy++
		}
		ticks += r.engine.Now()
		rescales += float64(r.engine.Restarts())
		e.digestf("%d %s par=%v steps=%d %s restarts=%d t=%.0f", i, r.engine.JobName(),
			r.engine.Parallelism(), steps[i], counts, r.engine.Restarts(), r.engine.Now())
	}

	e.putDur("plan_p50_ms", "p50", planNs)
	e.putDur("core.step_idle_us_p50", "p50", idleNs)
	stats.report(e)
	e.put("flink.ticks", ticks)
	e.put("flink.rescales", rescales)
	e.put("flink.sim_s_per_wall_s", ticks/e.value("wall_s"))
	e.put("slo.violation_share", float64(unhealthy)/float64(len(runs)))
	if e.rec != nil {
		e.put("flink.tick_ns", probeTickNs(false))
		e.put("flink.trial_us", probeTrialUs())
		e.planSpans(e.value("flink.tick_ns"))
	}
	return nil
}
