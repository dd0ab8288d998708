package core

import (
	"fmt"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/stat"
)

// randomDAG builds a valid random job graph: operator 0 is the sole
// source, every later operator has at least one earlier predecessor
// (so the graph is connected and acyclic by construction), the final
// operator is a sink, and profiles are drawn from sane ranges.
func randomDAG(t *testing.T, rng *stat.RNG) *dataflow.Graph {
	t.Helper()
	n := 3 + rng.Intn(4) // 3..6 operators
	g := dataflow.NewGraph(fmt.Sprintf("rand-dag-%d", n))
	for i := 0; i < n; i++ {
		op := dataflow.Operator{
			Name:        fmt.Sprintf("op%d", i),
			Kind:        dataflow.KindTransform,
			Selectivity: 0.5 + rng.Float64(), // 0.5 .. 1.5
			Profile: dataflow.Profile{
				BaseRatePerInstance: 100 + 1900*rng.Float64(),
				SyncCost:            0.05 * rng.Float64(),
				FixedLatencyMS:      1 + 10*rng.Float64(),
				CPUPerInstance:      1,
				MemPerInstanceMB:    64,
			},
		}
		switch i {
		case 0:
			op.Kind = dataflow.KindSource
		case n - 1:
			op.Kind = dataflow.KindSink
			op.Selectivity = 0
		}
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		// One guaranteed predecessor keeps op0 the only source…
		if err := g.Connect(fmt.Sprintf("op%d", rng.Intn(i)), fmt.Sprintf("op%d", i)); err != nil {
			t.Fatal(err)
		}
		// …plus occasional extra fan-in (Connect dedups repeats).
		if i >= 2 && rng.Float64() < 0.4 {
			_ = g.Connect(fmt.Sprintf("op%d", rng.Intn(i)), fmt.Sprintf("op%d", i))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("random DAG invalid: %v", err)
	}
	return g
}

// The Eq. 3 property (issue spec): on arbitrary valid DAGs the
// throughput optimizer terminates naturally within 2·P_max iterations —
// via the rate target, the PMax clamp, or the repeated-configuration
// rule — and never recommends parallelism above P_max at any point in
// its history.
func TestOptimizeThroughputPropertyRandomDAGs(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("dag%02d", trial), func(t *testing.T) {
			rng := stat.NewRNG(uint64(9000 + trial))
			g := randomDAG(t, rng)
			cl, err := cluster.New(cluster.Config{Machines: []cluster.Machine{
				{Name: "p1", Cores: 8},
				{Name: "p2", Cores: 8},
			}})
			if err != nil {
				t.Fatal(err)
			}
			rate := 500 + 4500*rng.Float64()
			topic, err := kafka.NewTopic(kafka.ConstantRate(rate))
			if err != nil {
				t.Fatal(err)
			}
			e, err := flink.New(flink.Config{Graph: g, Cluster: cl, Topic: topic,
				NoNoise: true, Seed: uint64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			pmax := cl.MaxParallelism()
			res, err := OptimizeThroughput(e, ThroughputOptions{
				TargetRate:    rate,
				MaxIterations: 2 * pmax,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations > 2*pmax {
				t.Fatalf("optimizer ran %d iterations, bound is %d", res.Iterations, 2*pmax)
			}
			if !res.ReachedTarget && !res.TerminatedByRepeat {
				t.Fatalf("optimizer exhausted its %d-iteration budget without terminating naturally "+
					"(history %d entries)", 2*pmax, len(res.History))
			}
			for _, it := range res.History {
				for op, k := range it.Par {
					if k > pmax {
						t.Fatalf("iteration recommended op%d parallelism %d > PMax %d", op, k, pmax)
					}
					if k < 1 {
						t.Fatalf("iteration recommended op%d parallelism %d < 1", op, k)
					}
				}
			}
			for op, k := range res.Base {
				if k > pmax || k < 1 {
					t.Fatalf("selected base op%d parallelism %d outside [1, %d]", op, k, pmax)
				}
			}
		})
	}
}
