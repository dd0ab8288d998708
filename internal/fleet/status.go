package fleet

import "autrascale/internal/slo"

// Status is a consistent point-in-time summary of the fleet, rendered by
// the /debug/fleet endpoint and the CLI fleet mode. It carries aggregate
// scalars plus the incremental health view — never the per-job listing,
// which at 10k jobs would make every poll O(jobs). Use JobsPage for the
// listing, chunked.
type Status struct {
	NowSec     float64 `json:"now_sec"`
	Rounds     int     `json:"rounds"`
	TotalCores int     `json:"total_cores"`
	UsedCores  int     `json:"used_cores"`
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Chaos      string  `json:"chaos_profile"`
	// Jobs counts live jobs (running + quarantined + drained).
	Jobs int `json:"jobs"`
	// Health is the aggregate maintained at round barriers (health.go).
	Health FleetHealth `json:"health"`
	// SharedModels maps workload signature → rates (RPS) the fleet
	// library holds models for. Signature order in JSON follows
	// SharedSignatures.
	SharedModels     map[string][]float64 `json:"shared_models"`
	SharedSignatures []string             `json:"shared_signatures"`
}

// JobStatus summarizes one job for observers.
type JobStatus struct {
	Name           string  `json:"name"`
	State          State   `json:"state"`
	Workload       string  `json:"workload"`
	Signature      string  `json:"signature"`
	Cores          int     `json:"cores"`
	Seed           uint64  `json:"seed"`
	SubmittedAtSec float64 `json:"submitted_at_sec"`
	SimulatedSec   float64 `json:"simulated_sec"`
	Steps          int     `json:"steps"`
	Decisions      int     `json:"decisions"`
	Parallelism    int     `json:"parallelism_total"`
	Restarts       int     `json:"restarts"`
	LagRecords     float64 `json:"lag_records"`
	WarmStarted    bool    `json:"warm_started"`
	WarmSourceRate float64 `json:"warm_source_rate,omitempty"`
	// SLO is the job's burn-rate health report (slo package).
	SLO   slo.Health `json:"slo"`
	Error string     `json:"error,omitempty"`
}

// Snapshot captures the fleet's summary state. Safe to call while rounds
// run — it takes the fleet lock, so it always observes a round boundary.
// Cost is O(signatures + topBurnK), independent of the job count: the
// health section reads the incremental aggregate, not the jobs.
func (f *Fleet) Snapshot() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		NowSec:       f.nowSec,
		Rounds:       f.rounds,
		TotalCores:   f.cfg.TotalCores,
		UsedCores:    f.usedCores,
		Workers:      f.cfg.Workers,
		Seed:         f.cfg.Seed,
		Chaos:        f.cfg.Chaos.Name,
		Jobs:         len(f.order),
		Health:       f.healthLocked(),
		SharedModels: make(map[string][]float64, len(f.shared)),
	}
	for sig, lib := range f.shared {
		st.SharedModels[sig] = lib.Rates()
	}
	st.SharedSignatures = sortedSignatures(st.SharedModels)
	return st
}

// jobStatusLocked builds one job's status. Caller holds f.mu.
func (f *Fleet) jobStatusLocked(j *job) JobStatus {
	f.par = j.engine.AppendParallelism(f.par[:0])
	js := JobStatus{
		Name:           j.spec.Name,
		State:          j.state,
		Workload:       j.spec.Workload.Name,
		Signature:      j.spec.Signature,
		Cores:          j.spec.cores(),
		Seed:           j.seed,
		SubmittedAtSec: j.offsetSec,
		SimulatedSec:   j.engine.Now(),
		Steps:          j.steps,
		Decisions:      j.ctl.NumDecisions(),
		Parallelism:    f.par.Total(),
		Restarts:       j.engine.Restarts(),
		LagRecords:     j.engine.Topic().Lag(),
		WarmStarted:    j.warmStarted,
		WarmSourceRate: j.warmSourceRate,
		SLO:            j.ctl.SLOHealth(),
	}
	if j.err != nil {
		js.Error = j.err.Error()
	}
	return js
}

// JobsPage returns one page of per-job status in submission order, plus
// the total live-job count for pagination. A negative offset is clamped
// to 0; an offset past the end yields an empty page; limit <= 0 means
// "to the end". Cost is O(page), so observers of a 10k-job fleet pay
// only for what they ask for.
func (f *Fleet) JobsPage(offset, limit int) ([]JobStatus, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := len(f.order)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < total {
		end = offset + limit
	}
	page := make([]JobStatus, 0, end-offset)
	for _, name := range f.order[offset:end] {
		page = append(page, f.jobStatusLocked(f.jobs[name]))
	}
	return page, total
}
