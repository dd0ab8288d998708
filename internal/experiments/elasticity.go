package experiments

import (
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/policy"
	"autrascale/internal/workloads"
)

// Scenario selects the elasticity direction of Tables II/III.
type Scenario string

// Scenarios.
const (
	ScaleUp   Scenario = "scale-up"   // start under-provisioned (Table II)
	ScaleDown Scenario = "scale-down" // start over-provisioned (Table III)
)

// MethodResult is one method's terminal state in an elasticity test.
type MethodResult struct {
	Method             string
	Final              dataflow.ParallelismVector
	TotalParallelism   int
	Iterations         int
	FinalLatencyMS     float64
	FinalThroughputRPS float64
	LatencyMet         bool
	ThroughputMet      bool
	CPUUsedCores       float64
	MemUsedMB          float64
}

// ElasticityJob is one workload's comparison across methods.
type ElasticityJob struct {
	Workload        string
	TargetRPS       float64
	TargetLatencyMS float64
	Methods         []MethodResult
}

// ElasticityResult reproduces Table II (scale-up) or Table III
// (scale-down) plus the data behind Fig. 6 and Fig. 7.
type ElasticityResult struct {
	Scenario Scenario
	Jobs     []ElasticityJob
}

// ElasticityOptions parameterizes RunElasticity. Every method's loop is
// bounded at 25 iterations: Algorithm 1's default and DRS's bound.
type ElasticityOptions struct {
	Seed uint64
}

// elasticityJobSpec describes one of the two §V-C jobs.
type elasticityJobSpec struct {
	spec      workloads.Spec
	targetRPS float64
	initialUp dataflow.ParallelismVector
	initialDn dataflow.ParallelismVector
}

func elasticityJobs() []elasticityJobSpec {
	wc := workloads.WordCount()
	yh := workloads.Yahoo()
	return []elasticityJobSpec{
		{
			spec:      wc,
			targetRPS: 350e3, // paper: target throughput 350k, latency 180ms
			initialUp: dataflow.Uniform(4, 2),
			initialDn: dataflow.Uniform(4, 24),
		},
		{
			spec:      yh,
			targetRPS: 34e3, // paper: target throughput 34k (the Redis cap), latency 300ms
			initialUp: dataflow.Uniform(5, 2),
			initialDn: dataflow.Uniform(5, 40),
		},
	}
}

// RunElasticity executes the §V-C comparison: AuTraScale vs DRS with true
// and observed processing rates, from the scenario's initial allocation.
func RunElasticity(scenario Scenario, opts ElasticityOptions) (*ElasticityResult, error) {
	if scenario != ScaleUp && scenario != ScaleDown {
		return nil, fmt.Errorf("experiments: unknown scenario %q", scenario)
	}
	res := &ElasticityResult{Scenario: scenario}
	for _, job := range elasticityJobs() {
		initial := job.initialUp
		if scenario == ScaleDown {
			initial = job.initialDn
		}
		jr := ElasticityJob{
			Workload:        job.spec.Name,
			TargetRPS:       job.targetRPS,
			TargetLatencyMS: job.spec.TargetLatencyMS,
		}
		newEngine := func(seedOffset uint64) (*flink.Engine, error) {
			return workloads.NewEngine(job.spec, workloads.EngineOptions{
				Schedule:           kafka.ConstantRate(job.targetRPS),
				InitialParallelism: initial.Clone(),
				Seed:               opts.Seed + seedOffset,
			})
		}

		// AuTraScale: throughput optimization then Algorithm 1.
		e, err := newEngine(1)
		if err != nil {
			return nil, err
		}
		tr, err := core.OptimizeThroughput(e, core.ThroughputOptions{TargetRate: job.targetRPS})
		if err != nil {
			return nil, err
		}
		a1, err := core.RunAlgorithm1(e, tr.Base, core.Algorithm1Config{
			TargetRate:      job.targetRPS,
			TargetLatencyMS: job.spec.TargetLatencyMS,
			Seed:            opts.Seed + 2,
		})
		if err != nil {
			return nil, err
		}
		jr.Methods = append(jr.Methods, MethodResult{
			Method:             "AuTraScale",
			Final:              a1.Best.Par.Clone(),
			TotalParallelism:   a1.Best.Par.Total(),
			Iterations:         a1.Iterations(),
			FinalLatencyMS:     a1.Best.ProcLatencyMS,
			FinalThroughputRPS: a1.Best.ThroughputRPS,
			LatencyMet:         a1.Best.LatencyMet,
			ThroughputMet:      a1.Best.ThroughputRPS >= job.targetRPS*0.98,
			CPUUsedCores:       a1.Best.CPUUsedCores,
			MemUsedMB:          a1.Best.MemUsedMB,
		})

		// DRS with true and observed processing rates.
		for i, b := range []struct{ name, label string }{
			{"drs-true", "DRS(true)"},
			{"drs-observed", "DRS(observed)"},
		} {
			e, err := newEngine(3 + uint64(i))
			if err != nil {
				return nil, err
			}
			plan, err := planBaseline(e, b.name, core.TriggerQoS, job.targetRPS, job.spec.TargetLatencyMS)
			if err != nil {
				return nil, err
			}
			last := e.Measure() // the window the plan ended on
			jr.Methods = append(jr.Methods, MethodResult{
				Method:             b.label,
				Final:              plan.Par,
				TotalParallelism:   plan.Par.Total(),
				Iterations:         plan.Report.Iterations,
				FinalLatencyMS:     last.ProcLatencyMS,
				FinalThroughputRPS: last.ThroughputRPS,
				LatencyMet:         plan.Report.LatencyMet,
				ThroughputMet:      last.ThroughputRPS >= job.targetRPS*0.98,
				CPUUsedCores:       last.CPUUsedCores,
				MemUsedMB:          last.MemUsedMB,
			})
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}

// planBaseline runs a registry contender's one planning loop the way the
// controller would at a trigger: measure a trial window on the engine,
// then Plan from it for rate. The engine is left on the plan's choice,
// its window the last one the plan measured.
func planBaseline(e *flink.Engine, name string, trigger core.PlanTrigger, rate, targetLatencyMS float64) (core.PlanResult, error) {
	pol, err := policy.Build(name, policy.Env{TargetLatencyMS: targetLatencyMS})
	if err != nil {
		return core.PlanResult{}, err
	}
	m := core.TrialWindow(e)
	return pol.Plan(e, core.PlanRequest{Trigger: trigger, RateRPS: rate, Window: m, TimeSec: e.Now()})
}

// Method returns the named method's result for a job (nil if missing).
func (j ElasticityJob) Method(name string) *MethodResult {
	for i := range j.Methods {
		if j.Methods[i].Method == name {
			return &j.Methods[i]
		}
	}
	return nil
}

// Savings returns AuTraScale's relative parallelism saving vs the named
// method, averaged over jobs: mean((other − auTra)/other).
func (r *ElasticityResult) Savings(vs string) float64 {
	var sum float64
	n := 0
	for _, j := range r.Jobs {
		a := j.Method("AuTraScale")
		o := j.Method(vs)
		if a == nil || o == nil || o.TotalParallelism == 0 {
			continue
		}
		sum += float64(o.TotalParallelism-a.TotalParallelism) / float64(o.TotalParallelism)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the Table II/III layout plus the Fig. 6 and Fig. 7 views.
func (r *ElasticityResult) Render() []Table {
	main := Table{
		Title: fmt.Sprintf("Table %s — elasticity at a steady rate (%s)",
			map[Scenario]string{ScaleUp: "II", ScaleDown: "III"}[r.Scenario], r.Scenario),
		Columns: []string{"workload", "method", "iterations", "final parallelism",
			"total", "latency(ms)", "throughput(rps)", "lat-met", "thr-met"},
	}
	fig6 := Table{
		Title:   "Fig. 6 — latency of terminal configurations",
		Columns: []string{"workload", "method", "latency(ms)", "target(ms)"},
	}
	fig7 := Table{
		Title:   "Fig. 7 — parallelism of terminal configurations",
		Columns: []string{"workload", "method", "total parallelism", "cpu(cores)", "mem(MB)"},
	}
	for _, j := range r.Jobs {
		for _, m := range j.Methods {
			main.AddRow(j.Workload, m.Method, m.Iterations, m.Final.String(),
				m.TotalParallelism, m.FinalLatencyMS, m.FinalThroughputRPS,
				m.LatencyMet, m.ThroughputMet)
			fig6.AddRow(j.Workload, m.Method, m.FinalLatencyMS, j.TargetLatencyMS)
			fig7.AddRow(j.Workload, m.Method, m.TotalParallelism, m.CPUUsedCores, m.MemUsedMB)
		}
	}
	summary := Table{
		Title:   "Resource savings (AuTraScale vs DRS), mean over jobs",
		Columns: []string{"scenario", "vs DRS(true)", "vs DRS(observed)"},
	}
	summary.AddRow(string(r.Scenario),
		fmt.Sprintf("%.1f%%", 100*r.Savings("DRS(true)")),
		fmt.Sprintf("%.1f%%", 100*r.Savings("DRS(observed)")))
	return []Table{main, fig6, fig7, summary}
}
