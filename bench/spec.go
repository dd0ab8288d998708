package main

// The benchmark's fixed vocabulary: workload names, the fifteen
// end-to-end metrics and the per-layer metrics. BENCHMARK.json at the
// repository root mirrors these lists (TestBenchmarkJSONMatchesSpec holds
// the two together); later issues cite the names verbatim.

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by (0 for per-layer metrics, which have no bound).
	Bound float64
	// Native lists the workloads an end-to-end metric is measured on; on
	// every other workload the cell falls back to that workload's wall time
	// (README, "Cells that do not apply").
	Native []string
	// Layer and Moves document a per-layer metric: the module it measures
	// and the end-to-end metric × workload it should move.
	Layer string
	Moves string
}

const (
	wPlanStorm     = "plan-storm"
	wLearn         = "learn-synthetic"
	wFleetSteady   = "fleet-steady-10k"
	wSnapshotCycle = "snapshot-cycle-10k"
	wTelemetry     = "telemetry-soak"
	wChaosReplay   = "chaos-replay-1k"
	wMetricsd      = "metricsd-http"
)

var allWorkloads = []string{wPlanStorm, wLearn, wFleetSteady, wSnapshotCycle, wTelemetry, wChaosReplay, wMetricsd}

// endToEnd is what a user of the system would see.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Native: allWorkloads},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Native: allWorkloads},
	{Name: "plan_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wPlanStorm}},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wFleetSteady, wTelemetry}},
	{Name: "round_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wFleetSteady}},
	{Name: "round_max_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wTelemetry}},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.2, Native: allWorkloads},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25, Native: allWorkloads},
	{Name: "checkpoint_stall_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wSnapshotCycle}},
	{Name: "snapshot_s", Unit: "s", Better: "lower", Bound: 0.25, Native: []string{wSnapshotCycle}},
	{Name: "restore_s", Unit: "s", Better: "lower", Bound: 0.25, Native: []string{wSnapshotCycle}},
	{Name: "scrape_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wTelemetry, wMetricsd}},
	{Name: "audit_s", Unit: "s", Better: "lower", Bound: 0.25, Native: []string{wTelemetry}},
	{Name: "http_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: []string{wMetricsd}},
	{Name: "http_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Native: nil},
}

// perLayer is the cost stack, one group per module.
var perLayer = []metricSpec{
	// flink: the simulator every engine-bearing workload spends most of its time in.
	{Name: "flink.tick_ns", Unit: "ns", Better: "lower", Layer: "flink", Moves: "wall_s, round_p50_ms on fleet-steady-10k; wall_s, plan_p50_ms on plan-storm"},
	{Name: "flink.tick_store_ns", Unit: "ns", Better: "lower", Layer: "flink", Moves: "wall_s, round_max_ms on telemetry-soak"},
	{Name: "flink.trial_us", Unit: "us", Better: "lower", Layer: "flink", Moves: "plan_p50_ms on plan-storm"},
	{Name: "flink.ticks", Unit: "count", Better: "lower", Layer: "flink", Moves: "exact; fixed by the simulated horizon"},
	{Name: "flink.rescales", Unit: "count", Better: "lower", Layer: "flink", Moves: "exact; must not move under a pure perf change"},
	{Name: "flink.rescale_retries", Unit: "count", Better: "lower", Layer: "flink", Moves: "exact; must not move under a pure perf change"},
	{Name: "flink.sim_s_per_wall_s", Unit: "1/s", Better: "higher", Layer: "flink", Moves: "wall_s on every engine-bearing workload"},

	// core: the MAPE controller and its planning sessions.
	{Name: "core.step_idle_us_p50", Unit: "us", Better: "lower", Layer: "core", Moves: "round_p50_ms on fleet-steady-10k"},
	{Name: "core.plan_busy_s", Unit: "s", Better: "lower", Layer: "core", Moves: "wall_s, plan_p50_ms on plan-storm; round_max_ms on chaos-replay-1k"},
	{Name: "core.plans", Unit: "count", Better: "lower", Layer: "core", Moves: "exact"},
	{Name: "core.plans_alg1", Unit: "count", Better: "lower", Layer: "core", Moves: "exact"},
	{Name: "core.plans_alg2", Unit: "count", Better: "higher", Layer: "core", Moves: "exact"},
	{Name: "core.plans_degraded", Unit: "count", Better: "lower", Layer: "core", Moves: "exact"},
	{Name: "core.trials_per_plan", Unit: "count", Better: "lower", Layer: "core", Moves: "plan_p50_ms on plan-storm"},
	{Name: "core.plan_nontick_s", Unit: "s", Better: "lower", Layer: "core", Moves: "plan_p50_ms on plan-storm"},

	// bo / gp / transfer: the numerical core, isolated by learn-synthetic.
	{Name: "bo.suggest_us_p50", Unit: "us", Better: "lower", Layer: "bo", Moves: "wall_s on learn-synthetic; plan_p50_ms on plan-storm"},
	{Name: "bo.suggest_busy_s", Unit: "s", Better: "lower", Layer: "bo", Moves: "wall_s on learn-synthetic"},
	{Name: "bo.suggests", Unit: "count", Better: "lower", Layer: "bo", Moves: "exact"},
	{Name: "bo.add_us_p50", Unit: "us", Better: "lower", Layer: "bo", Moves: "wall_s on learn-synthetic"},
	{Name: "gp.fit_auto_us_p50", Unit: "us", Better: "lower", Layer: "gp", Moves: "wall_s on learn-synthetic"},
	{Name: "gp.predict_batch_us", Unit: "us", Better: "lower", Layer: "gp", Moves: "bo.suggest_us_p50"},
	{Name: "transfer.fit_residual_us_p50", Unit: "us", Better: "lower", Layer: "transfer", Moves: "wall_s on learn-synthetic"},
	{Name: "transfer.nearest_ns", Unit: "ns", Better: "lower", Layer: "transfer", Moves: "fleet.submit_warm_us_p50"},
	{Name: "transfer.warm_start_share", Unit: "share", Better: "higher", Layer: "transfer", Moves: "setup_s on the 10k workloads; round_max_ms on chaos-replay-1k"},
	{Name: "transfer.trials_saved", Unit: "count", Better: "higher", Layer: "transfer", Moves: "round_max_ms on chaos-replay-1k"},

	// fleet: the scheduler around the controllers.
	{Name: "fleet.round_busy_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "wall_s on the fleet workloads"},
	{Name: "fleet.round_self_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "round_p50_ms, round_p99_ms on fleet-steady-10k"},
	{Name: "fleet.rounds", Unit: "count", Better: "lower", Layer: "fleet", Moves: "exact"},
	{Name: "fleet.due_per_round_mean", Unit: "count", Better: "lower", Layer: "fleet", Moves: "exact"},
	{Name: "fleet.submit_cold_us_p50", Unit: "us", Better: "lower", Layer: "fleet", Moves: "setup_s"},
	{Name: "fleet.submit_warm_us_p50", Unit: "us", Better: "lower", Layer: "fleet", Moves: "setup_s on the 10k workloads"},
	{Name: "fleet.snapshot_call_us_p50", Unit: "us", Better: "lower", Layer: "fleet", Moves: "http_p50_ms on metricsd-http"},
	{Name: "fleet.jobs_page_us_p50", Unit: "us", Better: "lower", Layer: "fleet", Moves: "http_p50_ms on metricsd-http"},
	{Name: "fleet.worker_speedup", Unit: "x", Better: "higher", Layer: "fleet", Moves: "wall_s on chaos-replay-1k"},
	{Name: "fleet.quarantined", Unit: "count", Better: "lower", Layer: "fleet", Moves: "exact"},

	// persist: snapshot capture, encoding, and the way back.
	{Name: "persist.capture_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "checkpoint_stall_ms on snapshot-cycle-10k, chaos-replay-1k"},
	{Name: "persist.encode_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "snapshot_s on snapshot-cycle-10k"},
	{Name: "persist.write_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "snapshot_s on snapshot-cycle-10k"},
	{Name: "persist.decode_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "restore_s on snapshot-cycle-10k"},
	{Name: "persist.restore_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "restore_s on snapshot-cycle-10k, chaos-replay-1k"},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower", Layer: "persist", Moves: "alloc_mb on snapshot-cycle-10k"},
	{Name: "persist.bytes_per_job", Unit: "bytes", Better: "lower", Layer: "persist", Moves: "alloc_mb on snapshot-cycle-10k"},
	{Name: "persist.checkpoints_written", Unit: "count", Better: "higher", Layer: "persist", Moves: "exact up to write timing"},
	{Name: "persist.checkpoints_skipped", Unit: "count", Better: "lower", Layer: "persist", Moves: "exact up to write timing"},
	{Name: "persist.tick_fire_ms_p50", Unit: "ms", Better: "lower", Layer: "persist", Moves: "checkpoint_stall_ms on chaos-replay-1k"},

	// metrics: the store the binaries always attach.
	{Name: "metrics.record_ns", Unit: "ns", Better: "lower", Layer: "metrics", Moves: "wall_s, live_heap_mb, round_max_ms on telemetry-soak"},
	{Name: "metrics.series", Unit: "count", Better: "lower", Layer: "metrics", Moves: "scrape_ms"},
	{Name: "metrics.exposition_ms_p50", Unit: "ms", Better: "lower", Layer: "metrics", Moves: "scrape_ms on telemetry-soak, metricsd-http"},
	{Name: "metrics.exposition_bytes", Unit: "bytes", Better: "lower", Layer: "metrics", Moves: "scrape_ms"},
	{Name: "metrics.store_overhead_x", Unit: "x", Better: "lower", Layer: "metrics", Moves: "wall_s on telemetry-soak"},

	// trace / audit: the flight journal and its offline readers.
	{Name: "trace.flight_records", Unit: "count", Better: "lower", Layer: "trace", Moves: "exact"},
	{Name: "trace.flight_dropped", Unit: "count", Better: "lower", Layer: "trace", Moves: "exact"},
	{Name: "trace.write_jsonl_ms", Unit: "ms", Better: "lower", Layer: "trace", Moves: "audit_s on telemetry-soak"},
	{Name: "trace.journal_bytes", Unit: "bytes", Better: "lower", Layer: "trace", Moves: "audit_s on telemetry-soak"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "trace", Moves: "wall_s on telemetry-soak"},
	{Name: "audit.read_journal_ms", Unit: "ms", Better: "lower", Layer: "audit", Moves: "audit_s on telemetry-soak"},
	{Name: "audit.decode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "audit", Moves: "audit_s on telemetry-soak"},
	{Name: "audit.attributions_ms", Unit: "ms", Better: "lower", Layer: "audit", Moves: "audit_s on telemetry-soak"},
	{Name: "audit.diff_ms", Unit: "ms", Better: "lower", Layer: "audit", Moves: "wall_s on chaos-replay-1k"},

	// chaos / slo: quality guards — must not move under a pure perf change.
	{Name: "chaos.machine_kills", Unit: "count", Better: "lower", Layer: "chaos", Moves: "exact; quality guard"},
	{Name: "chaos.degraded_share", Unit: "share", Better: "lower", Layer: "chaos", Moves: "exact; quality guard"},
	{Name: "slo.violation_share", Unit: "share", Better: "lower", Layer: "slo", Moves: "exact; quality guard"},

	// metricsd: the daemon seen over HTTP.
	{Name: "metricsd.route.metrics_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "scrape_ms on metricsd-http"},
	{Name: "metricsd.route.status_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.health_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.fleet_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.flight_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.jobs_get_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.library_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p50_ms"},
	{Name: "metricsd.route.jobs_post_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms"},
	{Name: "metricsd.route.drain_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms"},
	{Name: "metricsd.route.remove_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms"},
	{Name: "metricsd.route.snapshot_post_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms"},
	{Name: "metricsd.route.snapshot_get_p50_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms"},
	{Name: "metricsd.status_p95_ms", Unit: "ms", Better: "lower", Layer: "metricsd", Moves: "http_p95_ms (fleet-lock wait)"},
	{Name: "metricsd.metrics_bytes", Unit: "bytes", Better: "lower", Layer: "metricsd", Moves: "scrape_ms on metricsd-http"},
	{Name: "metricsd.rss_mb", Unit: "MB", Better: "lower", Layer: "metricsd", Moves: "live_heap_mb on metricsd-http"},
	{Name: "metricsd.sim_s_per_wall_s", Unit: "1/s", Better: "higher", Layer: "metricsd", Moves: "lock hold per wall second"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "validity of metricsd-http (run invalid above 20 ms)"},

	// runtime / bench: the process and the harness itself.
	{Name: "runtime.mallocs", Unit: "count", Better: "lower", Layer: "runtime", Moves: "alloc_mb"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower", Layer: "runtime", Moves: "wall_s"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "round_p99_ms"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "live_heap_mb"},
	{Name: "bench.round_p50_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "chaos-replay-1k's median round with the full fleet (sits between two regimes: too unsteady for a bound)"},
	{Name: "bench.round_max_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "chaos-replay-1k's longest lock hold (one planning storm per run: too unsteady for a bound)"},
	{Name: "bench.http_p95_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "metricsd-http's tail latency over all routes (spread above any bound at this run length)"},
	{Name: "bench.raw_wall_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "wall_s = raw_wall_s x speed_factor"},
	{Name: "bench.calib_us_p50", Unit: "us", Better: "lower", Layer: "bench", Moves: "the box, not the program: the harness kernel's median around the region"},
	{Name: "bench.speed_factor", Unit: "x", Better: "higher", Layer: "bench", Moves: "every end-to-end timing: sqrt(reference kernel time / measured), 1 on the quiet reference box"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower", Layer: "bench", Moves: "validity of the traced pass (want <= 0.05)"},
	{Name: "bench.top_span_cover_share", Unit: "share", Better: "higher", Layer: "bench", Moves: "validity of the traced pass (want >= 0.95)"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer {
		m[s.Name] = s.Unit
	}
	return m
}()

// unitOf returns a metric's unit; an unknown name is a harness bug.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	return u
}

// workload is one seeded scenario.
type workload struct {
	Name string
	Why  string
	// run performs set-up, the timed region and the checks.
	run func(e *env) error
}

func workloadByName(name string) (workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
