package experiments

import (
	"autrascale/internal/dataflow"
	"autrascale/internal/workloads"
)

// Fig2Point is one uniform-parallelism test of CASE 2.
type Fig2Point struct {
	Parallelism   int
	ThroughputRPS float64
	ProcLatencyMS float64
	EventLatMS    float64
	LagRecords    float64
}

// Fig2Result reproduces Fig. 2: six independent WordCount runs at a fixed
// 300k records/s input with uniform parallelism 1..6.
type Fig2Result struct {
	Points []Fig2Point
}

// Fig2Options parameterizes RunFig2.
type Fig2Options struct {
	Seed uint64
}

// The CASE 2 sweep runs uniform parallelism 1..6, as in the paper, and
// measures each test over 300 s after a 60 s warm-up.
const (
	fig2MaxParallelism = 6
	fig2WindowSec      = 300
)

// RunFig2 executes the CASE 2 sweep.
func RunFig2(opts Fig2Options) (*Fig2Result, error) {
	spec := workloads.WordCountCaseStudy()
	n := spec.Graph.NumOperators()
	res := &Fig2Result{}
	for k := 1; k <= fig2MaxParallelism; k++ {
		e, err := workloads.NewEngine(spec, workloads.EngineOptions{
			Seed:               opts.Seed + uint64(k),
			InitialParallelism: dataflow.Uniform(n, k),
		})
		if err != nil {
			return nil, err
		}
		m := e.RunAndMeasure(60, fig2WindowSec)
		res.Points = append(res.Points, Fig2Point{
			Parallelism:   k,
			ThroughputRPS: m.ThroughputRPS,
			ProcLatencyMS: m.ProcLatencyMS,
			EventLatMS:    m.EventLatMS,
			LagRecords:    m.LagRecords,
		})
	}
	return res, nil
}

// Render prints the sweep like Fig. 2(a) and 2(b).
func (r *Fig2Result) Render() []Table {
	t := Table{
		Title: "Fig. 2 — WordCount, fixed 300k rps input, uniform parallelism sweep",
		Columns: []string{"parallelism", "throughput(rps)", "latency(ms)",
			"event-lat(ms)", "kafka-lag(records)"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Parallelism, p.ThroughputRPS, p.ProcLatencyMS, p.EventLatMS, p.LagRecords)
	}
	return []Table{t}
}
