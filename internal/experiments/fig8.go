package experiments

import (
	"fmt"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/stat"
	"autrascale/internal/workloads"
)

// Fig8Method is one method's outcome on a query after the rate change.
type Fig8Method struct {
	Method           string
	Final            dataflow.ParallelismVector
	TotalParallelism int
	Iterations       int
	CPUUsedCores     float64
	MemUsedMB        float64
	// Latency distribution of the terminal configuration (per-record
	// samples, for Fig. 8b).
	LatencyP50, LatencyP90, LatencyP99 float64
	LatencyMeanMS                      float64
}

// Fig8Query is one Nexmark query's comparison.
type Fig8Query struct {
	Query           string
	TargetLatencyMS float64
	Methods         []Fig8Method
}

// Fig8Result reproduces Fig. 8: AuTraScale's transfer learning vs DS2
// when the input rate changes (Q5: 20k→30k, Q11: 80k→100k).
type Fig8Result struct {
	Queries []Fig8Query
}

// Fig8Options parameterizes RunFig8.
type Fig8Options struct {
	Seed uint64
}

// RunFig8 executes the §V-D transfer-efficiency experiment.
func RunFig8(opts Fig8Options) (*Fig8Result, error) {
	cases := []struct {
		spec    workloads.Spec
		oldRate float64
	}{
		{workloads.NexmarkQ5(), 20e3},
		{workloads.NexmarkQ11(), 80e3},
	}
	res := &Fig8Result{}
	for ci, c := range cases {
		seed := opts.Seed + uint64(ci)*100
		q := Fig8Query{
			Query:           c.spec.Name,
			TargetLatencyMS: c.spec.TargetLatencyMS,
		}

		// Phase 1: train the benefit model at the old rate (the paper
		// trains the 20k/80k models in advance).
		eOld, err := workloads.NewEngine(c.spec, workloads.EngineOptions{
			Schedule: kafka.ConstantRate(c.oldRate), Seed: seed + 1,
		})
		if err != nil {
			return nil, err
		}
		trOld, err := core.OptimizeThroughput(eOld, core.ThroughputOptions{TargetRate: c.oldRate})
		if err != nil {
			return nil, err
		}
		a1, err := core.RunAlgorithm1(eOld, trOld.Base, core.Algorithm1Config{
			TargetRate:      c.oldRate,
			TargetLatencyMS: c.spec.TargetLatencyMS,
			Seed:            seed + 2,
		})
		if err != nil {
			return nil, err
		}
		if a1.Model == nil {
			return nil, fmt.Errorf("experiments: no model trained at %v rps for %s", c.oldRate, c.spec.Name)
		}

		// Phase 2a: AuTraScale reacts to the new rate with Algorithm 2.
		eNew, err := workloads.NewEngine(c.spec, workloads.EngineOptions{Seed: seed + 3})
		if err != nil {
			return nil, err
		}
		trNew, err := core.OptimizeThroughput(eNew, core.ThroughputOptions{TargetRate: c.spec.DefaultRateRPS})
		if err != nil {
			return nil, err
		}
		a2, err := core.RunAlgorithm2(eNew, trNew.Base, a1.Model, core.Algorithm1Config{
			TargetRate:      c.spec.DefaultRateRPS,
			TargetLatencyMS: c.spec.TargetLatencyMS,
			Seed:            seed + 4,
			// The paper fixes the benefit threshold only for the
			// elasticity tests (0.9); the transfer experiment aims
			// for minimal resources, so we run with a tight
			// over-allocation tolerance (threshold ≈ 0.976).
			OverAllocationW: 0.05,
			MaxIterations:   12,
		})
		if err != nil {
			return nil, err
		}
		mA, err := measureFinal(eNew, a2.Best.Par)
		if err != nil {
			return nil, err
		}
		q.Methods = append(q.Methods, Fig8Method{
			Method:           "AuTraScale",
			Final:            a2.Best.Par.Clone(),
			TotalParallelism: a2.Best.Par.Total(),
			Iterations:       len(a2.Trials),
			CPUUsedCores:     mA.cpu,
			MemUsedMB:        mA.mem,
			LatencyP50:       mA.p50,
			LatencyP90:       mA.p90,
			LatencyP99:       mA.p99,
			LatencyMeanMS:    mA.mean,
		})

		// Phase 2b: DS2 in offline mode, from scratch at the new rate.
		eDS2, err := workloads.NewEngine(c.spec, workloads.EngineOptions{Seed: seed + 5})
		if err != nil {
			return nil, err
		}
		plan, err := planBaseline(eDS2, "ds2", core.TriggerRateChange, c.spec.DefaultRateRPS, c.spec.TargetLatencyMS)
		if err != nil {
			return nil, err
		}
		mD, err := measureFinal(eDS2, plan.Par)
		if err != nil {
			return nil, err
		}
		q.Methods = append(q.Methods, Fig8Method{
			Method:           "DS2",
			Final:            plan.Par,
			TotalParallelism: plan.Par.Total(),
			Iterations:       plan.Report.Iterations,
			CPUUsedCores:     mD.cpu,
			MemUsedMB:        mD.mem,
			LatencyP50:       mD.p50,
			LatencyP90:       mD.p90,
			LatencyP99:       mD.p99,
			LatencyMeanMS:    mD.mean,
		})
		res.Queries = append(res.Queries, q)
	}
	return res, nil
}

type finalMeasure struct {
	cpu, mem, p50, p90, p99, mean float64
}

// measureFinal pins the engine at par and samples a long steady window
// for the latency distribution of Fig. 8(b).
func measureFinal(e *flink.Engine, par dataflow.ParallelismVector) (finalMeasure, error) {
	if err := e.SetParallelism(par); err != nil {
		return finalMeasure{}, fmt.Errorf("experiments: fig8 final window at %v: %w", par, err)
	}
	// Longer than a trial window: the tail percentiles need samples.
	m := e.MeasureSteadySampled(60, 600)
	out := finalMeasure{cpu: m.CPUUsedCores, mem: m.MemUsedMB, mean: m.ProcLatencyMS}
	if len(m.LatencySamples) > 0 {
		out.p50 = stat.Percentile(m.LatencySamples, 50)
		out.p90 = stat.Percentile(m.LatencySamples, 90)
		out.p99 = stat.Percentile(m.LatencySamples, 99)
	}
	return out, nil
}

// Savings returns AuTraScale's mean relative saving vs DS2 for a field
// selected by sel.
func (r *Fig8Result) Savings(sel func(Fig8Method) float64) float64 {
	var sum float64
	n := 0
	for _, q := range r.Queries {
		var a, d *Fig8Method
		for i := range q.Methods {
			switch q.Methods[i].Method {
			case "AuTraScale":
				a = &q.Methods[i]
			case "DS2":
				d = &q.Methods[i]
			}
		}
		if a == nil || d == nil || sel(*d) == 0 {
			continue
		}
		sum += (sel(*d) - sel(*a)) / sel(*d)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints Fig. 8(a), (b), (c).
func (r *Fig8Result) Render() []Table {
	a := Table{
		Title:   "Fig. 8(a) — terminal parallelism and iterations after the rate change",
		Columns: []string{"query", "method", "parallelism", "total", "iterations"},
	}
	b := Table{
		Title:   "Fig. 8(b) — per-record latency of the terminal configuration (ms)",
		Columns: []string{"query", "method", "mean", "p50", "p90", "p99", "target"},
	}
	c := Table{
		Title:   "Fig. 8(c) — resource usage of the terminal configuration",
		Columns: []string{"query", "method", "cpu(cores)", "mem(MB)"},
	}
	for _, q := range r.Queries {
		for _, m := range q.Methods {
			a.AddRow(q.Query, m.Method, m.Final.String(), m.TotalParallelism, m.Iterations)
			b.AddRow(q.Query, m.Method, m.LatencyMeanMS, m.LatencyP50, m.LatencyP90, m.LatencyP99, q.TargetLatencyMS)
			c.AddRow(q.Query, m.Method, m.CPUUsedCores, m.MemUsedMB)
		}
	}
	s := Table{
		Title:   "Fig. 8 summary — AuTraScale savings vs DS2 (mean over queries)",
		Columns: []string{"parallelism", "cpu", "memory"},
	}
	s.AddRow(
		fmt.Sprintf("%.1f%%", 100*r.Savings(func(m Fig8Method) float64 { return float64(m.TotalParallelism) })),
		fmt.Sprintf("%.1f%%", 100*r.Savings(func(m Fig8Method) float64 { return m.CPUUsedCores })),
		fmt.Sprintf("%.1f%%", 100*r.Savings(func(m Fig8Method) float64 { return m.MemUsedMB })),
	)
	return []Table{a, b, c, s}
}
