package experiments

import (
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/workloads"
)

// Fig1Point is one sampled instant of the CASE 1 run.
type Fig1Point struct {
	TimeSec       float64
	InputRateRPS  float64
	ThroughputRPS float64
	ProcLatencyMS float64
	EventLatMS    float64
	LagRecords    float64
}

// Fig1Result reproduces Fig. 1: a WordCount job with fixed parallelism 2
// under an input rate rising from 100k by 50k every 10 minutes.
type Fig1Result struct {
	Series []Fig1Point
}

// Fig1Options parameterizes RunFig1.
type Fig1Options struct {
	Seed uint64
}

// The CASE 1 run samples every minute for the paper's 50 minutes.
const (
	fig1SampleEverySec = 60
	fig1DurationSec    = 3000
)

// RunFig1 executes the CASE 1 experiment.
func RunFig1(opts Fig1Options) (*Fig1Result, error) {
	spec := workloads.WordCountCaseStudy()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule:           kafka.IncreasingRate(100e3, 50e3, 600),
		InitialParallelism: dataflow.Uniform(spec.Graph.NumOperators(), 2),
		Seed:               opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{}
	for e.Now() < fig1DurationSec {
		e.ResetWindow()
		e.Run(fig1SampleEverySec)
		m := e.Measure()
		res.Series = append(res.Series, Fig1Point{
			TimeSec:       e.Now(),
			InputRateRPS:  m.InputRateRPS,
			ThroughputRPS: m.ThroughputRPS,
			ProcLatencyMS: m.ProcLatencyMS,
			EventLatMS:    m.EventLatMS,
			LagRecords:    m.LagRecords,
		})
	}
	return res, nil
}

// Render prints the series like Fig. 1(a) and 1(b).
func (r *Fig1Result) Render() []Table {
	t := Table{
		Title: "Fig. 1 — WordCount, fixed parallelism (2,2,2,2), rate 100k +50k/10min",
		Columns: []string{"t(s)", "input(rps)", "throughput(rps)",
			"latency(ms)", "event-lat(ms)", "kafka-lag(records)"},
	}
	for _, p := range r.Series {
		t.AddRow(p.TimeSec, p.InputRateRPS, p.ThroughputRPS, p.ProcLatencyMS, p.EventLatMS, p.LagRecords)
	}
	return []Table{t}
}
