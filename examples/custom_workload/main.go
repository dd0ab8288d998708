// Custom workload: define your own streaming job — a fraud-detection
// pipeline — give each operator a performance profile, and let AuTraScale
// size it. This shows everything a downstream user needs to bring their
// own topology to the library.
//
// Pipeline: Kafka source -> Parse -> Enrich (keyed state lookups, the
// bottleneck) -> Score (ML inference, externally capped by a model
// server) -> Alert sink.
//
// Run with:
//
//	go run ./examples/custom_workload
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"autrascale"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sizes the fraud-detection pipeline and writes the report to w.
func run(w io.Writer) error {
	g := autrascale.NewGraph("fraud-detection")
	ops := []autrascale.Operator{
		{Name: "Source", Kind: autrascale.KindSource, Selectivity: 1,
			Profile: autrascale.Profile{
				BaseRatePerInstance: 40e3, SyncCost: 0.01,
				FixedLatencyMS: 5, QueueScaleMS: 1.5,
				CPUPerInstance: 1, MemPerInstanceMB: 512,
			}},
		{Name: "Parse", Kind: autrascale.KindTransform, Selectivity: 1,
			Profile: autrascale.Profile{
				BaseRatePerInstance: 25e3, SyncCost: 0.02,
				FixedLatencyMS: 8, QueueScaleMS: 2, CommCostPerParallelism: 0.3,
				CPUPerInstance: 1, MemPerInstanceMB: 512,
			}},
		{Name: "Enrich", Kind: autrascale.KindWindow, Selectivity: 1,
			Profile: autrascale.Profile{
				BaseRatePerInstance: 6e3, SyncCost: 0.015,
				FixedLatencyMS: 20, QueueScaleMS: 4, StateCostMS: 80,
				CommCostPerParallelism: 0.8,
				CPUPerInstance:         1, MemPerInstanceMB: 2048,
			}},
		{Name: "Score", Kind: autrascale.KindTransform, Selectivity: 0.2, // most events pass
			Profile: autrascale.Profile{
				BaseRatePerInstance: 9e3, SyncCost: 0.01,
				FixedLatencyMS: 15, QueueScaleMS: 3,
				ExternalCapRPS: 90e3, // the shared model server tops out here
				CPUPerInstance: 1, MemPerInstanceMB: 1024,
			}},
		{Name: "Alert", Kind: autrascale.KindSink, Selectivity: 0,
			Profile: autrascale.Profile{
				BaseRatePerInstance: 30e3,
				FixedLatencyMS:      5, QueueScaleMS: 1,
				CPUPerInstance: 0.5, MemPerInstanceMB: 256,
			}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			return err
		}
	}
	for _, e := range [][2]string{
		{"Source", "Parse"}, {"Parse", "Enrich"}, {"Enrich", "Score"}, {"Score", "Alert"},
	} {
		if err := g.Connect(e[0], e[1]); err != nil {
			return err
		}
	}

	const inputRate = 60e3
	topic, err := autrascale.NewTopic(autrascale.ConstantRate(inputRate))
	if err != nil {
		return err
	}
	engine, err := autrascale.NewCustomEngine(autrascale.EngineConfig{
		Graph:   g,
		Cluster: autrascale.PaperTestbed(),
		Topic:   topic,
		Seed:    11,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "custom pipeline:\n%s\n", g)
	tr, err := autrascale.OptimizeThroughput(engine, autrascale.ThroughputOptions{
		TargetRate: inputRate,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "throughput-optimal parallelism k' = %v (%.0f records/s)\n",
		tr.Base, tr.BestThroughputRPS)

	const targetLatency = 250
	res, err := autrascale.RunAlgorithm1(engine, tr.Base, autrascale.Algorithm1Config{
		TargetRate:      inputRate,
		TargetLatencyMS: targetLatency,
		Seed:            11,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "with a %.0f ms latency target: %v (total %d slots)\n",
		float64(targetLatency), res.Best.Par, res.Best.Par.Total())
	fmt.Fprintf(w, "  latency %.0f ms (met=%v), score %.3f, %d bootstrap + %d BO runs\n",
		res.Best.ProcLatencyMS, res.Best.LatencyMet, res.Best.Score,
		res.BootstrapRuns, res.Iterations)
	return nil
}
