// Command autrascale runs the AuTraScale controller on one of the paper's
// benchmark workloads and prints the scaling decisions.
//
// Usage:
//
//	autrascale [-workload name] [-rate rps] [-latency ms] [-duration sec]
//	           [-seed N] [-mode controller|once] [-explain] [-chaos profile]
//	           [-jobs N] [-workers N] [-flight out.jsonl]
//	           [-checkpoint path.json] [-checkpoint-every N]
//	           [-restore snapshot.json]
//
// Modes:
//
//	once        run throughput optimization + Algorithm 1 a single time
//	            and print the recommended configuration (default)
//	controller  run the full MAPE loop for -duration simulated seconds,
//	            printing every decision event
//
// With -jobs N the command ignores -mode and runs a whole fleet: N
// staggered-rate copies of the workload under one sharded scheduler. The
// first half is submitted cold at t=0; the second half joins halfway
// through -duration and warm-starts from the shared model library (see
// docs/fleet.md). The final table shows each job's state and how many
// configuration trials its first planning session cost.
//
// With -chaos (none, light, heavy) a seeded fault injector fails and
// delays rescales, drops/corrupts measurement windows, kills machines
// and stalls partitions on the named profile's schedule; the run is
// reproducible from -seed (see docs/chaos.md). Retry and degradation
// counters are printed at the end.
//
// With -explain, every decision is followed by a "why this
// configuration" report: the Eq. 3 base, each BO iteration's posterior
// and Eq. 9 margin, and (for transfer) which library model seeded the
// search.
//
// With -flight PATH the run keeps a flight recorder — a bounded journal
// of decision, BO-iteration, rescale and chaos events linked by
// correlation id — and dumps it to PATH as JSONL on exit (see
// docs/observability.md for the record schema, and `flightctl` to
// analyze the journal). A journal that fails to write exits nonzero, so
// scripts never diff a truncated file. -workers resizes the fleet
// scheduler's pool; it changes wall-clock speed only, and `make audit`
// proves the journal is worker-count independent.
//
// With -checkpoint PATH a fleet run persists a durable snapshot every
// -checkpoint-every rounds (atomic write: a crash never leaves a torn
// file), plus a final one on clean exit. -restore PATH boots the fleet
// from such a snapshot instead of submitting jobs; -duration is then the
// absolute simulated time to run until, so two restores of the same
// snapshot replay the same timeline (`make replay` diffs their flight
// journals to prove it — see docs/durability.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/fleet"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "wordcount",
			"workload: wordcount, yahoo, nexmark-q5, nexmark-q11")
		rate      = flag.Float64("rate", 0, "input rate in records/s (default: the workload's)")
		latency   = flag.Float64("latency", 0, "target latency in ms (default: the workload's)")
		duration  = flag.Float64("duration", 3600, "controller mode: simulated seconds to run")
		seed      = flag.Uint64("seed", 1, "random seed")
		mode      = flag.String("mode", "once", "once | controller")
		explain   = flag.Bool("explain", false, "print a 'why this configuration' report per decision")
		chaosProf = flag.String("chaos", "none", "fault-injection profile: none | light | heavy")
		jobs      = flag.Int("jobs", 0, "fleet mode: run N staggered-rate copies of the workload")
		workers   = flag.Int("workers", 0, "fleet mode: scheduler worker pool size (0: default; never affects decisions)")
		flightOut = flag.String("flight", "", "write the flight recorder journal to this file as JSONL")
		ckptPath  = flag.String("checkpoint", "", "fleet mode: persist a snapshot to this file")
		ckptEvery = flag.Int("checkpoint-every", 10, "checkpoint every N rounds (with -checkpoint)")
		restore   = flag.String("restore", "", "boot the fleet from a snapshot file; -duration becomes the absolute time to run until")
	)
	flag.Parse()

	spec, ok := workloads.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "autrascale: unknown workload %q (have %v)\n", *workload, workloads.Names())
		os.Exit(2)
	}
	if *rate <= 0 {
		*rate = spec.DefaultRateRPS
	}
	if *latency <= 0 {
		*latency = spec.TargetLatencyMS
	}

	profile, err := chaos.ByName(*chaosProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autrascale: %v\n", err)
		os.Exit(2)
	}

	// -flight: attach a flight recorder to a tracer shared by the
	// engine, controller, and (in fleet mode) every job's conduit, and
	// dump the journal on exit.
	var tracer *trace.Tracer
	if *flightOut != "" {
		tracer = trace.New(0)
		tracer.AttachFlight(trace.NewFlightRecorder(0))
	}

	if *restore != "" {
		runRestored(*restore, *workers, *duration, *ckptPath, *ckptEvery, tracer)
		if err := dumpFlight(tracer, *flightOut); err != nil {
			fatal(err)
		}
		return
	}
	if *jobs > 0 {
		runFleet(spec, *jobs, *workers, *rate, *latency, *duration, *seed, profile, tracer,
			*ckptPath, *ckptEvery)
		if err := dumpFlight(tracer, *flightOut); err != nil {
			fatal(err)
		}
		return
	}
	var injector *chaos.Injector
	var store *metrics.Store
	if profile.Enabled() {
		injector = chaos.New(profile, *seed)
		store = metrics.NewStore()
		fmt.Printf("chaos profile %q enabled (seed %d — reuse it to reproduce this run)\n",
			profile.Name, *seed)
	}

	engine, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: kafka.ConstantRate(*rate),
		Seed:     *seed,
		Chaos:    injector,
		Store:    store,
		Tracer:   tracer,
	})
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "once":
		runOnce(engine, spec, *rate, *latency, *seed, *explain)
	case "controller":
		runController(engine, *latency, *duration, *seed, *explain, tracer)
	default:
		fmt.Fprintf(os.Stderr, "autrascale: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	printChaosCounters(store, engine.JobName())
	if err := dumpFlight(tracer, *flightOut); err != nil {
		fatal(err)
	}
}

// dumpFlight writes the flight recorder's journal to path as JSONL. Any
// failure — create, write, or close — is returned so the process exits
// nonzero instead of pretending the journal landed: `make audit` and
// every scripted consumer trusts the exit code before diffing.
func dumpFlight(tracer *trace.Tracer, path string) error {
	if tracer == nil || path == "" {
		return nil
	}
	fl := tracer.Flight()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight journal: %w", err)
	}
	if err := fl.WriteJSONL(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("flight journal %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flight journal %s: %w", path, err)
	}
	fmt.Printf("flight recorder: %d records written to %s (%d dropped by the ring)\n",
		fl.Len(), path, fl.Dropped())
	return nil
}

// printChaosCounters reports the fault-handling counters after a chaos
// run: retries and degraded decisions (the _total suffix matches the
// Prometheus exposition names).
func printChaosCounters(store *metrics.Store, job string) {
	if store == nil {
		return
	}
	tags := map[string]string{"job": job}
	fmt.Printf("\nchaos outcome: rescale_retries_total %.0f, degraded_decisions_total %.0f\n",
		store.Counter("rescale_retries", tags).Value(),
		store.Counter("degraded_decisions", tags).Value())
}

func runOnce(engine *flink.Engine, spec workloads.Spec, rate, latency float64, seed uint64, explain bool) {
	fmt.Printf("workload %s: target %.0f records/s, latency <= %.0f ms\n",
		spec.Name, rate, latency)

	tr, err := core.OptimizeThroughput(engine, core.ThroughputOptions{TargetRate: rate})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("throughput optimization: k' = %v (%.0f records/s, %d iterations, reached=%v)\n",
		tr.Base, tr.BestThroughputRPS, tr.Iterations, tr.ReachedTarget)

	res, err := core.RunAlgorithm1(engine, tr.Base, core.Algorithm1Config{
		TargetRate:      rate,
		TargetLatencyMS: latency,
		Seed:            seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("algorithm 1: %d bootstrap runs + %d BO iterations (terminated=%v, threshold %.3f)\n",
		res.BootstrapRuns, res.Iterations, res.Met, res.Threshold)
	fmt.Printf("recommended configuration: %v (total %d slots)\n",
		res.Best.Par, res.Best.Par.Total())
	fmt.Printf("  latency   %.0f ms (met=%v)\n", res.Best.ProcLatencyMS, res.Best.LatencyMet)
	fmt.Printf("  throughput %.0f records/s\n", res.Best.ThroughputRPS)
	fmt.Printf("  score     %.3f\n", res.Best.Score)

	if explain {
		rep := core.DecisionReport{
			TimeSec:            engine.Now(),
			Action:             core.ActionAlgorithm1,
			Reason:             "one-shot run",
			RateRPS:            rate,
			Base:               tr.Base,
			ThroughputIters:    tr.Iterations,
			ReachedTarget:      tr.ReachedTarget,
			TerminatedByRepeat: tr.TerminatedByRepeat,
		}
		rep.FillFromAlgorithm1(res)
		fmt.Print("\n" + rep.Explain())
	}
}

func runController(engine *flink.Engine, latency, duration float64, seed uint64,
	explain bool, tracer *trace.Tracer) {
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: latency,
		Seed:            seed,
		Tracer:          tracer,
	})
	if err != nil {
		fatal(err)
	}
	events, err := ctl.Run(duration)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-9s %-12s %-22s %-12s %-12s %s\n",
		"t(s)", "action", "parallelism", "latency(ms)", "thr(rps)", "reason")
	for _, ev := range events {
		fmt.Printf("%-9.0f %-12s %-22s %-12.0f %-12.0f %s\n",
			ev.TimeSec, ev.Action, ev.Par.String(), ev.ProcLatencyMS, ev.ThroughputRPS, ev.Reason)
	}
	if explain {
		fmt.Println()
		for _, rep := range ctl.Decisions() {
			fmt.Print(rep.Explain())
		}
	}
}

// runFleet drives the multi-job control plane: half the jobs submitted
// cold at t=0, the other half joining at duration/2 to demonstrate
// cross-job warm starts, then a per-job summary table.
func runFleet(spec workloads.Spec, jobs, workers int, rate, latency, duration float64,
	seed uint64, profile chaos.Profile, tracer *trace.Tracer, ckptPath string, ckptEvery int) {
	store := metrics.NewStore()
	fl, err := fleet.New(fleet.Config{
		TotalCores: jobs * 32, // StaggeredJobs default: 2 machines × 16 cores each
		Workers:    workers,
		Seed:       seed,
		Chaos:      profile,
		Store:      store,
		Tracer:     tracer,
	})
	if err != nil {
		fatal(err)
	}
	if profile.Enabled() {
		fmt.Printf("chaos profile %q enabled (seed %d — reuse it to reproduce this run)\n",
			profile.Name, seed)
	}
	specs := fleet.StaggeredJobs(spec, jobs, rate)
	for i := range specs {
		specs[i].TargetLatencyMS = latency
	}
	cp := newCheckpointer(ckptPath, ckptEvery, fl)
	firstWave := (jobs + 1) / 2
	for _, js := range specs[:firstWave] {
		if err := fl.Submit(js); err != nil {
			fatal(err)
		}
	}
	runRounds(fl, duration/2, cp)
	for _, js := range specs[firstWave:] {
		if err := fl.Submit(js); err != nil {
			fatal(err)
		}
	}
	runRounds(fl, duration, cp)
	closeCheckpointer(cp, ckptPath)

	st := fl.Snapshot()
	fmt.Printf("fleet: %d jobs, %d/%d cores, %d rounds, %d warm starts, %d models shared\n",
		st.Jobs, st.UsedCores, st.TotalCores, st.Rounds,
		int(store.Counter("autrascale.fleet.warmstarts", nil).Value()),
		int(store.Counter("autrascale.fleet.models_published", nil).Value()))
	fmt.Printf("health: %d healthy, %d degraded, %d burning, %d quarantined\n",
		st.Health.Healthy, st.Health.Degraded, st.Health.Burning, st.Health.Quarantined)
	fmt.Printf("%-16s %-12s %-10s %-8s %-11s %-12s %s\n",
		"job", "state", "rate(rps)", "slots", "decisions", "first-plan", "trials")
	jobStatuses, _ := fl.JobsPage(0, 0)
	for _, js := range jobStatuses {
		decisions, err := fl.Decisions(js.Name)
		if err != nil {
			fatal(err)
		}
		firstPlan, trials := "-", "-"
		if len(decisions) > 0 {
			d := decisions[0]
			firstPlan = string(d.Action)
			trials = fmt.Sprintf("%d", d.Iterations+d.BootstrapRuns)
			if js.WarmStarted {
				firstPlan += fmt.Sprintf(" (warm from %.0f rps)", js.WarmSourceRate)
			}
		}
		state := string(js.State)
		if js.Error != "" {
			state += " (" + js.Error + ")"
		}
		fmt.Printf("%-16s %-12s %-10.0f %-8d %-11d %-12s %s\n",
			js.Name, state, jobRate(specs, js.Name), js.Parallelism, len(decisions), firstPlan, trials)
	}
}

// runRestored boots a fleet from a durable snapshot and replays it until
// the absolute simulated time untilSec. Restore is deterministic given
// the snapshot bytes, so two invocations against the same file emit
// identical flight journals (`make replay` relies on exactly that).
func runRestored(path string, workers int, untilSec float64, ckptPath string, ckptEvery int,
	tracer *trace.Tracer) {
	st, err := persist.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	store := metrics.NewStore()
	fl, err := fleet.Restore(st, fleet.RestoreOptions{Workers: workers, Store: store, Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	chaosName := st.Chaos
	if chaosName == "" {
		chaosName = "none"
	}
	fmt.Printf("restored fleet from %s: %d jobs at t=%.0fs (chaos %q, seed %d)\n",
		path, len(st.Jobs), st.NowSec, chaosName, st.Seed)
	// Models the capture-time Save skipped (opaque, undertrained) are
	// gone for good — name their rates so the loss is visible, not silent.
	for _, sh := range st.Shared {
		if len(sh.SkippedRates) > 0 {
			fmt.Printf("  shared library %q: models skipped at capture for rates %v\n",
				sh.Signature, sh.SkippedRates)
		}
	}
	for _, js := range st.Jobs {
		if len(js.LibrarySkipped) > 0 {
			fmt.Printf("  job %q: private models skipped at capture for rates %v\n",
				js.Name, js.LibrarySkipped)
		}
	}

	cp := newCheckpointer(ckptPath, ckptEvery, fl)
	runRounds(fl, untilSec, cp)
	closeCheckpointer(cp, ckptPath)

	snap := fl.Snapshot()
	fmt.Printf("fleet: %d jobs, %d/%d cores, %d rounds (t=%.0fs)\n",
		snap.Jobs, snap.UsedCores, snap.TotalCores, snap.Rounds, snap.NowSec)
	fmt.Printf("health: %d healthy, %d degraded, %d burning, %d quarantined\n",
		snap.Health.Healthy, snap.Health.Degraded, snap.Health.Burning, snap.Health.Quarantined)
	fmt.Printf("%-16s %-12s %-8s %-10s %s\n", "job", "state", "slots", "decisions", "steps")
	jobStatuses, _ := fl.JobsPage(0, 0)
	for _, js := range jobStatuses {
		state := string(js.State)
		if js.Error != "" {
			state += " (" + js.Error + ")"
		}
		fmt.Printf("%-16s %-12s %-8d %-10d %d\n",
			js.Name, state, js.Parallelism, js.Decisions, js.Steps)
	}
}

// runRounds advances the fleet to untilSec one round at a time, giving
// the checkpointer a tick between rounds (RunUntil with a durability
// hook).
func runRounds(fl *fleet.Fleet, untilSec float64, cp *persist.Checkpointer) {
	for fl.Now() < untilSec {
		fl.Round()
		if cp != nil {
			cp.Tick()
		}
	}
}

// newCheckpointer wires periodic snapshots into a fleet run; nil when
// -checkpoint was not given.
func newCheckpointer(path string, every int, fl *fleet.Fleet) *persist.Checkpointer {
	if path == "" {
		return nil
	}
	cp, err := persist.NewCheckpointer(path, every, fl.PersistState)
	if err != nil {
		fatal(err)
	}
	return cp
}

// closeCheckpointer flushes the final checkpoint; a failed write is
// fatal so scripts never restore from a file the run could not land.
func closeCheckpointer(cp *persist.Checkpointer, path string) {
	if cp == nil {
		return
	}
	if err := cp.Close(); err != nil {
		fatal(err)
	}
	written, skipped := cp.Stats()
	fmt.Printf("checkpoints: %d written to %s (%d skipped behind slow writes)\n",
		written, path, skipped)
}

// jobRate looks a job's configured rate back up from the submitted specs.
func jobRate(specs []fleet.JobSpec, name string) float64 {
	for _, s := range specs {
		if s.Name == name {
			return s.RateRPS
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "autrascale: %v\n", err)
	os.Exit(1)
}
