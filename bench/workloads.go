package main

// registry is the workloads in ledger order. Each Why is the line
// BENCHMARK.json carries (one line, at most 200 characters).
var registry = []workload{
	{Name: wPlanStorm, run: runPlanStorm,
		Why: "the paper's scenario, many times over: one job, three rate changes, Algorithm 1 then 2; planning and its trial windows are ~85% of wall and fleet, persist and metrics do nothing"},
	{Name: wLearn, run: runLearnSynthetic,
		Why: "Table IV at scale with no engine: bo, gp, mat and transfer are all of the work and flink none, so a GP/BO gain shows here and almost nowhere else"},
	{Name: wFleetSteady, run: runFleetSteady10k,
		Why: "10,000 jobs, ~86 due per round: Engine.Tick, Step without replans and Round's select/spawn/barrier dominate, planning is a few percent; a tick or scheduler gain shows, a BO gain does not"},
	{Name: wSnapshotCycle, run: runSnapshotCycle10k,
		Why: "capture, encode, fsync+rename, read, decode and Restore of a 10,000-job fleet, then rounds on it: persist is ~95% of the work, used both ways, so a capture gain that costs restore shows"},
	{Name: wTelemetry, run: runTelemetrySoak,
		Why: "200 jobs with store, tracer and flight recorder attached as the binaries attach them: per-tick Store.Record is ~90% of the work, beside the read path (exposition, journal decode, attribution)"},
	{Name: wChaosReplay, run: runChaosReplay1k,
		Why: "1,000 jobs under heavy chaos, a warm second wave, checkpoints, a crash, two restores replayed at 1 and default workers: faults, lock-holding planning storms, durability end to end"},
	{Name: wMetricsd, run: runMetricsdHTTP,
		Why: "the real cmd/metricsd under an open-loop 50 req/s mix of scrapes, status reads and admin writes while rounds run: the only user-facing latency, where handlers wait out the fleet lock"},
}
