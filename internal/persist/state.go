package persist

import "autrascale/internal/core"

// State documents: the serializable shape of a fleet. Everything here is
// plain data — no function values, no pointers into live simulations —
// so a snapshot is a pure function of the fleet's state and a restore is
// a pure function of the snapshot's bytes. Workloads, policies, and
// chaos profiles are persisted by *name* and resolved through their
// registries on restore; rate schedules are persisted as descriptors
// (schedule.go).

// FleetState is the root document: the fleet's clock, capacity,
// configuration, shared model libraries, every live job in submission
// order, and the model table the libraries reference. Drained jobs are
// deliberately absent — draining published their models and freed their
// capacity, so the snapshot carries their legacy (in the shared
// libraries), not their corpses.
type FleetState struct {
	// NowSec/Rounds are the shared clock's position.
	NowSec float64 `json:"now_sec"`
	Rounds int     `json:"rounds"`
	// TotalCores, RoundSec, Seed, Chaos reproduce the fleet Config.
	// Chaos is the profile name ("none", "light", "heavy"); the restored
	// injectors re-derive per-job fault schedules from it and the seeds.
	TotalCores int     `json:"total_cores"`
	RoundSec   float64 `json:"round_sec"`
	Seed       uint64  `json:"seed"`
	Chaos      string  `json:"chaos_profile"`
	// Jobs lists every live job in submission order (the round-barrier
	// order a restore must reproduce).
	Jobs []JobState `json:"jobs"`
	// Shared holds the fleet-level warm-start libraries, keyed by
	// workload signature, sorted by signature.
	Shared []SharedLibraryState `json:"shared_libraries"`
	// Models is the model table: each distinct model once, however many
	// libraries hold it. Libraries reference it by index (ModelRef).
	Models []ModelState `json:"models"`
}

// SharedLibraryState is one signature's warm-start library.
type SharedLibraryState struct {
	Signature string     `json:"signature"`
	Models    []ModelRef `json:"models"`
	// SkippedRates lists models that could not be persisted because
	// they expose no training data (transfer.ModelLibrary.Save's skip
	// semantics) — recorded so the restore log names exactly what was
	// lost.
	SkippedRates []float64 `json:"skipped_rates,omitempty"`
}

// ModelState is one entry of the model table: a benefit model persisted
// as its training data only, and refitted once on restore however many
// libraries reference it — the same tiny, GP-internals-free format
// transfer/persist.go established. The rate it is stored at belongs to
// each reference, not to the model.
type ModelState struct {
	Inputs  [][]float64 `json:"inputs"`
	Targets []float64   `json:"targets"`
}

// ModelRef is one library entry: the rate a model is stored at, and the
// model as an index into FleetState.Models.
type ModelRef struct {
	RateRPS float64 `json:"rate_rps"`
	Model   int     `json:"model"`
}

// JobState is one job's serializable position: its declarative spec
// (enough to rebuild engine and policy through the registries) plus the
// mutable state a restore must reinstate.
type JobState struct {
	// Declarative spec — mirrors fleet.JobSpec field for field, with the
	// workload and policy flattened to registry names.
	Name            string        `json:"name"`
	Workload        string        `json:"workload"`
	Signature       string        `json:"signature"`
	RateRPS         float64       `json:"rate_rps"`
	TargetLatencyMS float64       `json:"target_latency_ms"`
	Machines        int           `json:"machines"`
	CoresPerMachine int           `json:"cores_per_machine"`
	MemPerMachineMB int           `json:"mem_per_machine_mb"`
	MaxIterations   int           `json:"max_iterations"`
	Schedule        ScheduleState `json:"schedule"`

	// Lifecycle.
	State string `json:"state"` // "running" | "quarantined"
	Error string `json:"error,omitempty"`

	// Clock linkage. SubmittedAtSec is the fleet clock at submission,
	// EngineNowSec the job's own clock at capture; DueAtSec is the job's
	// timer-wheel key — the fleet time at which it is next due. A
	// restored job gets a fresh engine whose clock restarts at zero, so
	// its time origin becomes DueAtSec and its schedule is shifted by
	// EngineNowSec (schedule.go) to keep the input rate a function of
	// the original timeline.
	SubmittedAtSec float64 `json:"submitted_at_sec"`
	EngineNowSec   float64 `json:"engine_now_sec"`
	DueAtSec       float64 `json:"due_at_sec"`

	// Engine state.
	Seed        uint64 `json:"seed"`
	Parallelism []int  `json:"parallelism"`
	Restarts    int    `json:"restarts"`
	RNGState    uint64 `json:"rng_state"`

	// Controller state (core/persist.go) — rate trigger, SLO windows,
	// throughput base, policy name.
	Controller core.ControllerState `json:"controller"`

	// Library is the job's private benefit-model library as references
	// into the model table; LibrarySkipped lists rates whose models were
	// opaque.
	Library        []ModelRef `json:"library,omitempty"`
	LibrarySkipped []float64  `json:"library_skipped,omitempty"`

	// Fleet bookkeeping.
	Steps          int       `json:"steps"`
	WarmStarted    bool      `json:"warm_started"`
	WarmSourceRate float64   `json:"warm_source_rate,omitempty"`
	PublishedRates []float64 `json:"published_rates,omitempty"`
}
