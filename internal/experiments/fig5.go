package experiments

import (
	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/workloads"
)

// Fig5Workload is one workload's throughput-optimization outcome.
type Fig5Workload struct {
	Name              string
	TargetRPS         float64
	Base              dataflow.ParallelismVector
	BestThroughputRPS float64
	Iterations        int
	ReachedTarget     bool
	TerminatedRepeat  bool
	// Trace is the per-iteration history (Fig. 5b plots Yahoo's).
	Trace []core.ThroughputIter
}

// Fig5Result reproduces Fig. 5: the throughput optimizer on WordCount,
// Yahoo, Nexmark Q5, and Nexmark Q11 at the §V-B input rates.
type Fig5Result struct {
	Workloads []Fig5Workload
}

// Fig5Options parameterizes RunFig5.
type Fig5Options struct {
	Seed uint64
}

// RunFig5 executes the throughput-optimization experiment for all four
// workloads, starting from parallelism 1 everywhere as in the paper.
func RunFig5(opts Fig5Options) (*Fig5Result, error) {
	res := &Fig5Result{}
	for _, spec := range workloads.All() {
		e, err := workloads.NewEngine(spec, workloads.EngineOptions{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		tr, err := core.OptimizeThroughput(e, core.ThroughputOptions{
			TargetRate: spec.DefaultRateRPS,
			// Fig. 5 plots the paper's 5-minute policy running time, not a trial window.
			WarmupSec:  60,
			MeasureSec: 300,
		})
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, Fig5Workload{
			Name:              spec.Name,
			TargetRPS:         spec.DefaultRateRPS,
			Base:              tr.Base,
			BestThroughputRPS: tr.BestThroughputRPS,
			Iterations:        tr.Iterations,
			ReachedTarget:     tr.ReachedTarget,
			TerminatedRepeat:  tr.TerminatedByRepeat,
			Trace:             tr.History,
		})
	}
	return res, nil
}

// Render prints Fig. 5(a) plus the Yahoo iteration trace of Fig. 5(b).
func (r *Fig5Result) Render() []Table {
	a := Table{
		Title: "Fig. 5(a) — throughput optimization per workload (start: all parallelism 1)",
		Columns: []string{"workload", "target(rps)", "optimal parallelism",
			"throughput(rps)", "iterations", "reached", "repeat-term"},
	}
	var tables []Table
	for _, w := range r.Workloads {
		a.AddRow(w.Name, w.TargetRPS, w.Base.String(), w.BestThroughputRPS,
			w.Iterations, w.ReachedTarget, w.TerminatedRepeat)
	}
	tables = append(tables, a)
	for _, w := range r.Workloads {
		if w.Name != "yahoo" {
			continue
		}
		b := Table{
			Title:   "Fig. 5(b) — Yahoo Streaming throughput-optimization trace (Redis-capped)",
			Columns: []string{"iteration", "parallelism", "throughput(rps)", "latency(ms)"},
		}
		for i, h := range w.Trace {
			b.AddRow(i+1, h.Par.String(), h.ThroughputRPS, h.ProcLatencyMS)
		}
		tables = append(tables, b)
	}
	return tables
}
