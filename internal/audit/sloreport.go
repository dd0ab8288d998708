package audit

// The SLO audit report: burn-state transitions per job, aggregated from
// the journal's slo.state records into a ranked table — the fleet-wide
// "who burned their budget, when, and for how long" view.

import (
	"fmt"
	"sort"

	"autrascale/internal/slo"
	"autrascale/internal/trace"
)

// JobSLOReport aggregates one job's burn-state history.
type JobSLOReport struct {
	Job         string `json:"job"`
	Transitions int    `json:"transitions"`
	// WorstState/FinalState are slo.State names; MaxBurn is the largest
	// burn rate journaled at any of the job's transitions.
	WorstState string  `json:"worst_state"`
	FinalState string  `json:"final_state"`
	MaxBurn    float64 `json:"max_burn"`
	// Seconds spent in each state, from the job's first journal record to
	// the journal's end (a job starts healthy).
	HealthySec  float64 `json:"healthy_sec"`
	DegradedSec float64 `json:"degraded_sec"`
	BurningSec  float64 `json:"burning_sec"`
}

// SLOReport is the ranked fleet audit: worst jobs first.
type SLOReport struct {
	StartSec float64        `json:"start_sec"`
	EndSec   float64        `json:"end_sec"`
	Jobs     []JobSLOReport `json:"jobs"`
}

// SLOAudit aggregates the journal's slo.state transitions per job. Jobs
// with journal records but no transitions appear as all-healthy rows,
// so the report always covers the whole fleet seen in the journal.
func SLOAudit(j *Journal) SLOReport {
	start, end := j.TimeRange()
	rep := SLOReport{StartSec: start, EndSec: end}

	type jobAgg struct {
		report   JobSLOReport
		curState string
		curSince float64
	}
	aggs := map[string]*jobAgg{}
	var order []string
	agg := func(job string, tSec float64) *jobAgg {
		a, ok := aggs[job]
		if !ok {
			a = &jobAgg{
				report:   JobSLOReport{Job: job, WorstState: string(slo.StateHealthy), FinalState: string(slo.StateHealthy)},
				curState: string(slo.StateHealthy),
				curSince: tSec,
			}
			aggs[job] = a
			order = append(order, job)
		}
		return a
	}
	addTime := func(a *jobAgg, until float64) {
		dt := until - a.curSince
		if dt <= 0 {
			return
		}
		switch slo.State(a.curState) {
		case slo.StateBurning:
			a.report.BurningSec += dt
		case slo.StateDegraded:
			a.report.DegradedSec += dt
		default:
			a.report.HealthySec += dt
		}
	}

	for _, rec := range j.Records {
		if rec.Job == "" {
			continue
		}
		a := agg(rec.Job, rec.TimeSec)
		if rec.Kind != trace.KindSLOState {
			continue
		}
		to := attrString(rec.Attrs, "to")
		burn, _ := attrFloat(rec.Attrs, "burn_rate")
		addTime(a, rec.TimeSec)
		a.curState = to
		a.curSince = rec.TimeSec
		a.report.Transitions++
		if burn > a.report.MaxBurn {
			a.report.MaxBurn = burn
		}
		if slo.State(to).Severity() > slo.State(a.report.WorstState).Severity() {
			a.report.WorstState = to
		}
	}
	for _, job := range order {
		a := aggs[job]
		addTime(a, end)
		a.report.FinalState = a.curState
		rep.Jobs = append(rep.Jobs, a.report)
	}
	// Rank: worst state first, then max burn, then most time burning,
	// then name for a stable order.
	sort.SliceStable(rep.Jobs, func(i, k int) bool {
		a, b := rep.Jobs[i], rep.Jobs[k]
		if sa, sb := slo.State(a.WorstState).Severity(), slo.State(b.WorstState).Severity(); sa != sb {
			return sa > sb
		}
		if a.MaxBurn != b.MaxBurn {
			return a.MaxBurn > b.MaxBurn
		}
		if a.BurningSec != b.BurningSec {
			return a.BurningSec > b.BurningSec
		}
		return a.Job < b.Job
	})
	return rep
}

// Render formats the report as a ranked table.
func (r SLOReport) Render() string {
	out := fmt.Sprintf("slo audit: t=%.0fs..%.0fs, %d job(s), ranked worst first\n",
		r.StartSec, r.EndSec, len(r.Jobs))
	out += fmt.Sprintf("%-16s %-9s %-9s %-6s %-9s %-11s %-12s %s\n",
		"job", "worst", "final", "trans", "max-burn", "healthy(s)", "degraded(s)", "burning(s)")
	for _, j := range r.Jobs {
		out += fmt.Sprintf("%-16s %-9s %-9s %-6d %-9.1f %-11.0f %-12.0f %.0f\n",
			j.Job, j.WorstState, j.FinalState, j.Transitions, j.MaxBurn,
			j.HealthySec, j.DegradedSec, j.BurningSec)
	}
	return out
}
