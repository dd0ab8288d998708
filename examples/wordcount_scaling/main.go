// WordCount elasticity: compare AuTraScale against the DRS baseline
// (with true and observed processing rates) in the paper's scale-down
// scenario — the job starts heavily over-provisioned at uniform
// parallelism 24 and each method must shed resources while keeping the
// 180 ms latency target at 350k records/s.
//
// This is the §V-C experiment behind Tables II/III and Figs. 6/7. The
// observed-rate DRS variant illustrates the paper's core argument: rates
// measured over wall-clock time (including idle waiting) underestimate
// capacity, so the controller can never justify scaling in.
//
// Run with:
//
//	go run ./examples/wordcount_scaling
package main

import (
	"fmt"
	"log"

	"autrascale"
)

const (
	targetRate    = 350e3
	targetLatency = 180.0
)

func main() {
	spec := autrascale.WordCount()
	initial := autrascale.UniformParallelism(4, 24)
	fmt.Printf("scale-down scenario: %s starts at %v (%d slots) for %.0f records/s\n\n",
		spec.Name, initial, initial.Total(), targetRate)

	// --- AuTraScale ---
	engine := newEngine(spec, initial, 1)
	tr, err := autrascale.OptimizeThroughput(engine, autrascale.ThroughputOptions{TargetRate: targetRate})
	if err != nil {
		log.Fatal(err)
	}
	a1, err := autrascale.RunAlgorithm1(engine, tr.Base, autrascale.Algorithm1Config{
		TargetRate:      targetRate,
		TargetLatencyMS: targetLatency,
		Seed:            2,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("AuTraScale", a1.Best.Par, a1.Iterations,
		a1.Best.ProcLatencyMS, a1.Best.ThroughputRPS, a1.Best.LatencyMet)

	// --- DRS with true and observed processing rates ---
	for _, variant := range []autrascale.DRSVariant{
		autrascale.DRSTrueRate, autrascale.DRSObservedRate,
	} {
		engine := newEngine(spec, initial, 3+uint64(variant))
		pol, err := autrascale.NewDRSPolicy(variant,
			engine.Cluster().MaxParallelism(), targetRate, targetLatency)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pol.Run(engine)
		if err != nil {
			log.Fatal(err)
		}
		last := res.History[len(res.History)-1]
		report(variant.String(), res.Final, res.Iterations,
			last.ProcLatencyMS, last.ThroughputRPS, res.LatencyMet)
	}
	fmt.Println("\nnote how DRS(observed) stays pinned at the over-provisioned start:")
	fmt.Println("observed rates include idle time, so shrinking never looks safe to it.")
}

func newEngine(spec autrascale.WorkloadSpec, initial autrascale.ParallelismVector, seed uint64) *autrascale.Engine {
	engine, err := autrascale.NewEngine(spec, autrascale.EngineOptions{
		Schedule:           autrascale.ConstantRate(targetRate),
		InitialParallelism: initial.Clone(),
		Seed:               seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return engine
}

func report(method string, par autrascale.ParallelismVector, iterations int,
	latencyMS, throughput float64, met bool) {
	fmt.Printf("%-14s final %v (total %2d)  iterations %2d  latency %3.0f ms (met=%v)  throughput %.0f rps\n",
		method, par, par.Total(), iterations, latencyMS, met, throughput)
}
