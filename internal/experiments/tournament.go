package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/kafka"
	"autrascale/internal/policy"
	"autrascale/internal/workloads"
)

// The tournament runs every scaling policy against every rate schedule
// under every chaos profile — one controller, one engine, one seed per
// cell — and ranks the contenders on SLO violations, backlog, rescale
// churn, and resource cost. It is the paper's §V comparison generalized
// into a standing fixture: adding a policy to the registry enrolls it.

// TournamentOptions parameterizes RunTournament.
type TournamentOptions struct {
	// Seed drives every cell (each cell derives its own sub-seed from
	// the grid coordinates, so cells are independent of grid order).
	Seed uint64
	// Policies/Schedules/Chaos subset the grid axes; empty means all
	// registered policies, all schedule shapes, all chaos profiles.
	Policies  []string
	Schedules []string
	Chaos     []string
	// DurationSec is the simulated horizon per cell (default 7200).
	DurationSec float64
	// Workers is the parallel cell-runner count (default 1). Results are
	// identical for any worker count — the determinism test locks it in.
	Workers int
}

// scheduleNames lists the tournament's workload shapes in grid order.
func scheduleNames() []string {
	return []string{"step", "diurnal", "flash-crowd", "sawtooth"}
}

// chaosNames lists the tournament's fault profiles in grid order.
func chaosNames() []string {
	return []string{"none", "light", "heavy"}
}

func (o *TournamentOptions) defaults() error {
	if len(o.Policies) == 0 {
		o.Policies = policy.Names()
	}
	if len(o.Schedules) == 0 {
		o.Schedules = scheduleNames()
	}
	if len(o.Chaos) == 0 {
		o.Chaos = chaosNames()
	}
	if o.DurationSec <= 0 {
		o.DurationSec = 7200
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	for _, name := range o.Chaos {
		if _, err := chaos.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// tournamentSchedule builds the named rate shape around the workload's
// default rate R: every shape crosses the controller's 10% rate-change
// threshold so each policy actually gets exercised, and every shape's
// mean stays near R so cells are comparable.
func tournamentSchedule(name string, rate, durationSec float64) (kafka.RateSchedule, error) {
	switch name {
	case "step":
		return kafka.StepSchedule{Steps: []kafka.Step{
			{FromSec: 0, Rate: 0.75 * rate},
			{FromSec: durationSec / 2, Rate: 1.25 * rate},
		}}, nil
	case "diurnal":
		return kafka.DiurnalRate{
			NightRate: 0.5 * rate,
			PeakRate:  1.25 * rate,
			PeriodSec: durationSec,
			PeakAtSec: durationSec / 2,
			Sharpness: 3,
		}, nil
	case "flash-crowd":
		return kafka.FlashCrowdRate{
			BaseRate:    0.6 * rate,
			PeakRate:    1.4 * rate,
			StartSec:    durationSec / 3,
			RampSec:     120,
			HoldSec:     600,
			DecayTauSec: 600,
		}, nil
	case "sawtooth":
		return kafka.SawtoothRate{
			MinRate:   0.6 * rate,
			MaxRate:   1.3 * rate,
			PeriodSec: durationSec / 3,
		}, nil
	default:
		return nil, fmt.Errorf("unknown schedule %q (have %v)", name, scheduleNames())
	}
}

// cellSeed mixes the tournament seed with the cell coordinates so each
// cell's randomness is a pure function of (seed, policy, schedule,
// chaos) — independent of grid order and worker interleaving.
func cellSeed(seed uint64, pol, sched, chaosName string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s", seed, pol, sched, chaosName)
	return h.Sum64()
}

// TournamentCell is one (policy, schedule, chaos) run's scorecard.
type TournamentCell struct {
	Policy   string `json:"policy"`
	Schedule string `json:"schedule"`
	Chaos    string `json:"chaos"`
	Seed     uint64 `json:"seed"`
	// Steps is the number of MAPE windows observed; Violations how many
	// of them missed the latency target.
	Steps      int `json:"steps"`
	Violations int `json:"violations"`
	// ViolationFrac is Violations/Steps — the cell's SLO headline.
	ViolationFrac float64 `json:"violation_frac"`
	// LagIntegral is Σ lag·dt over the run (records·sec): sustained
	// backlog a throughput-only scorecard would miss.
	LagIntegral float64 `json:"lag_integral"`
	// Rescales counts engine restarts — planning trials included, so
	// measurement-hungry policies pay for their curiosity.
	Rescales int `json:"rescales"`
	// CoreSec is Σ cpu·dt (cores·sec): the cell's resource bill.
	CoreSec float64 `json:"core_sec"`
	// FinalPar is the configuration the run ended on.
	FinalPar string `json:"final_par"`
	// Err marks a cell whose controller died (quarantine-grade failure);
	// failed cells rank their policy last.
	Err string `json:"err,omitempty"`
}

// TournamentStanding aggregates one policy's cells.
type TournamentStanding struct {
	Rank     int    `json:"rank"`
	Policy   string `json:"policy"`
	Cells    int    `json:"cells"`
	Failures int    `json:"failures"`
	// MeanViolationFrac averages the per-cell violation fractions.
	MeanViolationFrac float64 `json:"mean_violation_frac"`
	Violations        int     `json:"violations"`
	LagIntegral       float64 `json:"lag_integral"`
	Rescales          int     `json:"rescales"`
	CoreSec           float64 `json:"core_sec"`
}

// TournamentResult is the full grid plus the ranked standings.
type TournamentResult struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	DurationSec float64              `json:"duration_sec"`
	Cells       []TournamentCell     `json:"cells"`
	Standings   []TournamentStanding `json:"standings"`
}

// RunTournament executes the policy×schedule×chaos grid on Nexmark Q5
// and ranks the policies, each planning with its own iteration bound.
// Cells run in parallel across opts.Workers; every cell is
// seeded from its own coordinates and results land at fixed grid
// indices, so the output is bit-identical for any worker count.
func RunTournament(opts TournamentOptions) (*TournamentResult, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	spec := workloads.NexmarkQ5()
	// Fail fast on bad axis names before burning simulation time.
	for _, name := range opts.Schedules {
		if _, err := tournamentSchedule(name, spec.DefaultRateRPS, opts.DurationSec); err != nil {
			return nil, err
		}
	}
	for _, name := range opts.Policies {
		if _, err := policy.Lookup(name); err != nil {
			return nil, err
		}
	}

	res := &TournamentResult{
		Workload:    spec.Name,
		Seed:        opts.Seed,
		DurationSec: opts.DurationSec,
	}
	for _, pol := range opts.Policies {
		for _, sched := range opts.Schedules {
			for _, ch := range opts.Chaos {
				res.Cells = append(res.Cells, TournamentCell{
					Policy:   pol,
					Schedule: sched,
					Chaos:    ch,
					Seed:     cellSeed(opts.Seed, pol, sched, ch),
				})
			}
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runTournamentCell(&res.Cells[i], spec, opts)
			}
		}()
	}
	for i := range res.Cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res.Standings = rankStandings(res.Cells)
	return res, nil
}

// runTournamentCell runs one controller for the cell's coordinates and
// fills in its scorecard.
func runTournamentCell(cell *TournamentCell, spec workloads.Spec, opts TournamentOptions) {
	sched, err := tournamentSchedule(cell.Schedule, spec.DefaultRateRPS, opts.DurationSec)
	if err != nil {
		cell.Err = err.Error()
		return
	}
	profile, err := chaos.ByName(cell.Chaos)
	if err != nil {
		cell.Err = err.Error()
		return
	}
	var injector *chaos.Injector
	if profile.Enabled() {
		injector = chaos.New(profile, cell.Seed)
	}
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: sched,
		Seed:     cell.Seed,
		Chaos:    injector,
	})
	if err != nil {
		cell.Err = err.Error()
		return
	}
	pol, err := policy.Build(cell.Policy, policy.Env{
		TargetLatencyMS: spec.TargetLatencyMS,
		Seed:            cell.Seed,
	})
	if err != nil {
		cell.Err = err.Error()
		return
	}
	ctl, err := core.NewController(e, core.ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS,
		Seed:            cell.Seed,
		Policy:          pol,
	})
	if err != nil {
		cell.Err = err.Error()
		return
	}
	events, err := ctl.Run(opts.DurationSec)
	if err != nil {
		cell.Err = err.Error()
		// Score what completed before the failure: a policy that dies
		// late still shows its partial bill.
	}
	prev := 0.0
	for _, ev := range events {
		dt := ev.TimeSec - prev
		prev = ev.TimeSec
		cell.Steps++
		if !ev.QoS.LatencyOK {
			cell.Violations++
		}
		cell.LagIntegral += ev.LagRecords * dt
		cell.CoreSec += ev.CPUUsedCores * dt
	}
	if cell.Steps > 0 {
		cell.ViolationFrac = float64(cell.Violations) / float64(cell.Steps)
	}
	cell.Rescales = e.Restarts()
	cell.FinalPar = e.Parallelism().String()
}

// rankStandings aggregates cells per policy and ranks them: fewest
// failures, then lowest mean violation fraction, then lag integral,
// then cores·sec, then name — SLO first, backlog second, cost third.
func rankStandings(cells []TournamentCell) []TournamentStanding {
	byPolicy := map[string]*TournamentStanding{}
	var order []string
	for _, c := range cells {
		s := byPolicy[c.Policy]
		if s == nil {
			s = &TournamentStanding{Policy: c.Policy}
			byPolicy[c.Policy] = s
			order = append(order, c.Policy)
		}
		s.Cells++
		if c.Err != "" {
			s.Failures++
		}
		s.MeanViolationFrac += c.ViolationFrac
		s.Violations += c.Violations
		s.LagIntegral += c.LagIntegral
		s.Rescales += c.Rescales
		s.CoreSec += c.CoreSec
	}
	out := make([]TournamentStanding, 0, len(order))
	for _, name := range order {
		s := byPolicy[name]
		if s.Cells > 0 {
			s.MeanViolationFrac /= float64(s.Cells)
		}
		out = append(out, *s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Failures != b.Failures {
			return a.Failures < b.Failures
		}
		if a.MeanViolationFrac != b.MeanViolationFrac {
			return a.MeanViolationFrac < b.MeanViolationFrac
		}
		if a.LagIntegral != b.LagIntegral {
			return a.LagIntegral < b.LagIntegral
		}
		if a.CoreSec != b.CoreSec {
			return a.CoreSec < b.CoreSec
		}
		return a.Policy < b.Policy
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// Render prints the ranked standings and the per-cell grid.
func (r *TournamentResult) Render() []Table {
	s := Table{
		Title: fmt.Sprintf("Tournament standings — %s, %.0fs horizon, seed %d (grid: %d cells)",
			r.Workload, r.DurationSec, r.Seed, len(r.Cells)),
		Columns: []string{"rank", "policy", "cells", "fail", "viol%", "lag(rec·s)", "rescales", "cores·s"},
	}
	for _, st := range r.Standings {
		s.AddRow(st.Rank, st.Policy, st.Cells, st.Failures,
			fmt.Sprintf("%.1f", 100*st.MeanViolationFrac),
			st.LagIntegral, st.Rescales, st.CoreSec)
	}
	g := Table{
		Title:   "Tournament grid — one controller run per cell",
		Columns: []string{"policy", "schedule", "chaos", "steps", "viol%", "lag(rec·s)", "rescales", "cores·s", "final", "err"},
	}
	for _, c := range r.Cells {
		g.AddRow(c.Policy, c.Schedule, c.Chaos, c.Steps,
			fmt.Sprintf("%.1f", 100*c.ViolationFrac),
			c.LagIntegral, c.Rescales, c.CoreSec, c.FinalPar, c.Err)
	}
	return []Table{s, g}
}
