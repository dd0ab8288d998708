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
// scheduler's pool; it changes wall-clock speed only, and TestCLIGates
// proves the journal is worker-count independent.
//
// With -checkpoint PATH a fleet run persists a durable snapshot every
// -checkpoint-every rounds (atomic write: a crash never leaves a torn
// file), plus a final one on clean exit. -restore PATH boots the fleet
// from such a snapshot instead of submitting jobs; -duration is then the
// absolute simulated time to run until, so two restores of the same
// snapshot replay the same timeline (TestCLIGates diffs their flight
// journals to prove it — see docs/durability.md). -checkpoint and
// -workers are fleet flags: without -jobs or -restore they are a usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the command args describe, writes its report to stdout
// and errors to stderr, and returns the exit code: 2 on a usage error, 1
// on a failed run.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("autrascale", flag.ContinueOnError)
	workload := fs.String("workload", "wordcount",
		"workload: wordcount, yahoo, nexmark-q5, nexmark-q11")
	rate := fs.Float64("rate", 0, "input rate in records/s (default: the workload's)")
	latency := fs.Float64("latency", 0, "target latency in ms (default: the workload's)")
	duration := fs.Float64("duration", 3600, "controller mode: simulated seconds to run")
	seed := fs.Uint64("seed", 1, "random seed")
	mode := fs.String("mode", "once", "once | controller")
	explain := fs.Bool("explain", false, "print a 'why this configuration' report per decision")
	chaosProf := fs.String("chaos", "none", "fault-injection profile: none | light | heavy")
	jobs := fs.Int("jobs", 0, "fleet mode: run N staggered-rate copies of the workload")
	workers := fs.Int("workers", 0, "fleet mode: scheduler worker pool size (0: default; never affects decisions)")
	flightOut := fs.String("flight", "", "write the flight recorder journal to this file as JSONL")
	ckptPath := fs.String("checkpoint", "", "fleet mode: persist a snapshot to this file")
	ckptEvery := fs.Int("checkpoint-every", 10, "checkpoint every N rounds (with -checkpoint)")
	restore := fs.String("restore", "", "boot the fleet from a snapshot file; -duration becomes the absolute time to run until")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "autrascale: "+format+"\n", a...)
		return 2
	}

	spec, ok := workloads.ByName(*workload)
	if !ok {
		return usage("unknown workload %q (have %v)", *workload, workloads.Names())
	}
	if *rate <= 0 {
		*rate = spec.DefaultRateRPS
	}
	if *latency <= 0 {
		*latency = spec.TargetLatencyMS
	}

	profile, err := chaos.ByName(*chaosProf)
	if err != nil {
		return usage("%v", err)
	}
	fleetMode := *jobs > 0 || *restore != ""
	if !fleetMode && *mode != "once" && *mode != "controller" {
		return usage("unknown mode %q", *mode)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"checkpoint", "workers"} {
		if set[name] && !fleetMode {
			return usage("-%s needs fleet mode (-jobs N or -restore PATH)", name)
		}
	}

	// -flight: attach a flight recorder to a tracer shared by the
	// engine, controller, and (in fleet mode) every job's conduit, and
	// dump the journal on exit.
	var tracer *trace.Tracer
	if *flightOut != "" {
		tracer = trace.New(0)
		tracer.AttachFlight(trace.NewFlightRecorder(0))
	}

	switch {
	case *restore != "":
		err = runRestored(stdout, *restore, *workers, *duration, *ckptPath, *ckptEvery, tracer)
	case *jobs > 0:
		err = runFleet(stdout, spec, *jobs, *workers, *rate, *latency, *duration, *seed, profile, tracer,
			*ckptPath, *ckptEvery)
	default:
		err = runJob(stdout, spec, *mode, *rate, *latency, *duration, *seed, *explain, profile, tracer)
	}
	if err == nil {
		err = dumpFlight(stdout, tracer, *flightOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "autrascale: %v\n", err)
		return 1
	}
	return 0
}

// runJob runs one job in the given mode, then reports its chaos
// counters when a fault profile is on.
func runJob(w io.Writer, spec workloads.Spec, mode string, rate, latency, duration float64,
	seed uint64, explain bool, profile chaos.Profile, tracer *trace.Tracer) error {
	var injector *chaos.Injector
	var store *metrics.Store
	if profile.Enabled() {
		injector = chaos.New(profile, seed)
		store = metrics.NewStore()
		fmt.Fprintf(w, "chaos profile %q enabled (seed %d — reuse it to reproduce this run)\n",
			profile.Name, seed)
	}

	engine, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: kafka.ConstantRate(rate),
		Seed:     seed,
		Chaos:    injector,
		Store:    store,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}
	if mode == "once" {
		err = runOnce(w, engine, spec, rate, latency, seed, explain)
	} else {
		err = runController(w, engine, latency, duration, seed, explain, tracer)
	}
	if err != nil {
		return err
	}
	printChaosCounters(w, store, engine.JobName())
	return nil
}

// dumpFlight writes the flight recorder's journal to path as JSONL. Any
// failure — create, write, or close — is returned so the process exits
// nonzero instead of pretending the journal landed: every scripted
// consumer trusts the exit code before diffing.
func dumpFlight(w io.Writer, tracer *trace.Tracer, path string) error {
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
	fmt.Fprintf(w, "flight recorder: %d records written to %s (%d dropped by the ring)\n",
		fl.Len(), path, fl.Dropped())
	return nil
}

// printChaosCounters reports the fault-handling counters after a chaos
// run: retries and degraded decisions (the _total suffix matches the
// Prometheus exposition names).
func printChaosCounters(w io.Writer, store *metrics.Store, job string) {
	if store == nil {
		return
	}
	tags := map[string]string{"job": job}
	fmt.Fprintf(w, "\nchaos outcome: rescale_retries_total %.0f, degraded_decisions_total %.0f\n",
		store.Counter("rescale_retries", tags).Value(),
		store.Counter("degraded_decisions", tags).Value())
}

func runOnce(w io.Writer, engine *flink.Engine, spec workloads.Spec, rate, latency float64,
	seed uint64, explain bool) error {
	fmt.Fprintf(w, "workload %s: target %.0f records/s, latency <= %.0f ms\n",
		spec.Name, rate, latency)

	tr, err := core.OptimizeThroughput(engine, core.ThroughputOptions{TargetRate: rate})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "throughput optimization: k' = %v (%.0f records/s, %d iterations, reached=%v)\n",
		tr.Base, tr.BestThroughputRPS, tr.Iterations, tr.ReachedTarget)

	res, err := core.RunAlgorithm1(engine, tr.Base, core.Algorithm1Config{
		TargetRate:      rate,
		TargetLatencyMS: latency,
		Seed:            seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm 1: %d bootstrap runs + %d BO iterations (terminated=%v, threshold %.3f)\n",
		res.BootstrapRuns, res.Iterations, res.Met, res.Threshold)
	fmt.Fprintf(w, "recommended configuration: %v (total %d slots)\n",
		res.Best.Par, res.Best.Par.Total())
	fmt.Fprintf(w, "  latency   %.0f ms (met=%v)\n", res.Best.ProcLatencyMS, res.Best.LatencyMet)
	fmt.Fprintf(w, "  throughput %.0f records/s\n", res.Best.ThroughputRPS)
	fmt.Fprintf(w, "  score     %.3f\n", res.Best.Score)

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
		fmt.Fprint(w, "\n"+rep.Explain())
	}
	return nil
}

func runController(w io.Writer, engine *flink.Engine, latency, duration float64, seed uint64,
	explain bool, tracer *trace.Tracer) error {
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: latency,
		Seed:            seed,
		Tracer:          tracer,
	})
	if err != nil {
		return err
	}
	events, err := ctl.Run(duration)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %-12s %-22s %-12s %-12s %s\n",
		"t(s)", "action", "parallelism", "latency(ms)", "thr(rps)", "reason")
	for _, ev := range events {
		fmt.Fprintf(w, "%-9.0f %-12s %-22s %-12.0f %-12.0f %s\n",
			ev.TimeSec, ev.Action, ev.Par.String(), ev.ProcLatencyMS, ev.ThroughputRPS, ev.Reason)
	}
	if explain {
		fmt.Fprintln(w)
		for _, rep := range ctl.Decisions() {
			fmt.Fprint(w, rep.Explain())
		}
	}
	return nil
}

// runFleet drives the multi-job control plane: half the jobs submitted
// cold at t=0, the other half joining at duration/2 to demonstrate
// cross-job warm starts, then a per-job summary table.
func runFleet(w io.Writer, spec workloads.Spec, jobs, workers int, rate, latency, duration float64,
	seed uint64, profile chaos.Profile, tracer *trace.Tracer, ckptPath string, ckptEvery int) error {
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
		return err
	}
	if profile.Enabled() {
		fmt.Fprintf(w, "chaos profile %q enabled (seed %d — reuse it to reproduce this run)\n",
			profile.Name, seed)
	}
	specs := fleet.StaggeredJobs(spec, jobs, rate)
	for i := range specs {
		specs[i].TargetLatencyMS = latency
	}
	cp, err := newCheckpointer(ckptPath, ckptEvery, fl)
	if err != nil {
		return err
	}
	firstWave := (jobs + 1) / 2
	for _, js := range specs[:firstWave] {
		if err := fl.Submit(js); err != nil {
			return err
		}
	}
	runRounds(fl, duration/2, cp)
	for _, js := range specs[firstWave:] {
		if err := fl.Submit(js); err != nil {
			return err
		}
	}
	runRounds(fl, duration, cp)
	if err := closeCheckpointer(w, cp, ckptPath); err != nil {
		return err
	}

	st := fl.Snapshot()
	fmt.Fprintf(w, "fleet: %d jobs, %d/%d cores, %d rounds, %d warm starts, %d models shared\n",
		st.Jobs, st.UsedCores, st.TotalCores, st.Rounds,
		int(store.Counter("autrascale.fleet.warmstarts", nil).Value()),
		int(store.Counter("autrascale.fleet.models_published", nil).Value()))
	fmt.Fprintf(w, "health: %d healthy, %d degraded, %d burning, %d quarantined\n",
		st.Health.Healthy, st.Health.Degraded, st.Health.Burning, st.Health.Quarantined)
	fmt.Fprintf(w, "%-16s %-12s %-10s %-8s %-11s %-12s %s\n",
		"job", "state", "rate(rps)", "slots", "decisions", "first-plan", "trials")
	jobStatuses, _ := fl.JobsPage(0, 0)
	for _, js := range jobStatuses {
		decisions, err := fl.Decisions(js.Name)
		if err != nil {
			return err
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
		fmt.Fprintf(w, "%-16s %-12s %-10.0f %-8d %-11d %-12s %s\n",
			js.Name, state, jobRate(specs, js.Name), js.Parallelism, len(decisions), firstPlan, trials)
	}
	return nil
}

// runRestored boots a fleet from a durable snapshot and replays it until
// the absolute simulated time untilSec. Restore is deterministic given
// the snapshot bytes, so two invocations against the same file emit
// identical flight journals (TestCLIGates relies on exactly that).
func runRestored(w io.Writer, path string, workers int, untilSec float64, ckptPath string, ckptEvery int,
	tracer *trace.Tracer) error {
	st, err := persist.ReadFile(path)
	if err != nil {
		return err
	}
	store := metrics.NewStore()
	fl, err := fleet.Restore(st, fleet.RestoreOptions{Workers: workers, Store: store, Tracer: tracer})
	if err != nil {
		return err
	}
	chaosName := st.Chaos
	if chaosName == "" {
		chaosName = "none"
	}
	fmt.Fprintf(w, "restored fleet from %s: %d jobs, %d distinct models at t=%.0fs (chaos %q, seed %d)\n",
		path, len(st.Jobs), len(st.Models), st.NowSec, chaosName, st.Seed)
	// Models the capture-time Save skipped (opaque, undertrained) are
	// gone for good — name their rates so the loss is visible, not silent.
	for _, sh := range st.Shared {
		if len(sh.SkippedRates) > 0 {
			fmt.Fprintf(w, "  shared library %q: models skipped at capture for rates %v\n",
				sh.Signature, sh.SkippedRates)
		}
	}
	for _, js := range st.Jobs {
		if len(js.LibrarySkipped) > 0 {
			fmt.Fprintf(w, "  job %q: private models skipped at capture for rates %v\n",
				js.Name, js.LibrarySkipped)
		}
	}

	cp, err := newCheckpointer(ckptPath, ckptEvery, fl)
	if err != nil {
		return err
	}
	runRounds(fl, untilSec, cp)
	if err := closeCheckpointer(w, cp, ckptPath); err != nil {
		return err
	}

	snap := fl.Snapshot()
	fmt.Fprintf(w, "fleet: %d jobs, %d/%d cores, %d rounds (t=%.0fs)\n",
		snap.Jobs, snap.UsedCores, snap.TotalCores, snap.Rounds, snap.NowSec)
	fmt.Fprintf(w, "health: %d healthy, %d degraded, %d burning, %d quarantined\n",
		snap.Health.Healthy, snap.Health.Degraded, snap.Health.Burning, snap.Health.Quarantined)
	fmt.Fprintf(w, "%-16s %-12s %-8s %-10s %s\n", "job", "state", "slots", "decisions", "steps")
	jobStatuses, _ := fl.JobsPage(0, 0)
	for _, js := range jobStatuses {
		state := string(js.State)
		if js.Error != "" {
			state += " (" + js.Error + ")"
		}
		fmt.Fprintf(w, "%-16s %-12s %-8d %-10d %d\n",
			js.Name, state, js.Parallelism, js.Decisions, js.Steps)
	}
	return nil
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
func newCheckpointer(path string, every int, fl *fleet.Fleet) (*persist.Checkpointer, error) {
	if path == "" {
		return nil, nil
	}
	return persist.NewCheckpointer(path, every, fl.PersistState)
}

// closeCheckpointer flushes the final checkpoint; a failed write is an
// error so scripts never restore from a file the run could not land.
func closeCheckpointer(w io.Writer, cp *persist.Checkpointer, path string) error {
	if cp == nil {
		return nil
	}
	if err := cp.Close(); err != nil {
		return err
	}
	written, skipped := cp.Stats()
	fmt.Fprintf(w, "checkpoints: %d written to %s (%d skipped behind slow writes)\n",
		written, path, skipped)
	return nil
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
