package flink_test

import (
	"fmt"
	"math"
	"testing"

	"autrascale/internal/cluster"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/stat"
)

// The laws in this file relate a run to a transformed run, or to its own
// inputs, without predicting any absolute value. They hold for every
// noise stream — both sides of a law draw from generators at the same
// seed — so they pin the simulator's behaviour independently of how the
// normal samples are generated.

// noiseSettings are the runs each law is checked under: noise off, and
// noise on at three seeds.
var noiseSettings = []struct {
	noise bool
	seed  uint64
}{{false, 1}, {true, 11}, {true, 12}, {true, 13}}

// lawTol is the relative tolerance of a law: the two sides evaluate the
// same quantities in a different order, never a different model.
const lawTol = 1e-9

// near reports whether got is want within lawTol relative to scale, the
// magnitude of the terms want was computed from.
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= lawTol*math.Max(1, math.Abs(scale))
}

// scaledRate multiplies a schedule's rate by c.
type scaledRate struct {
	s kafka.RateSchedule
	c float64
}

func (r scaledRate) RateAt(sec float64) float64 { return r.c * r.s.RateAt(sec) }

// linearCase is c in the USL's linear regime with interference off:
// every operator keeps its rate, costs, selectivity and edges but loses
// its synchronization and cross-talk terms and its external cap, and the
// cluster has cores enough that the CPU demand never oversubscribes it.
// Then an instance's true rate does not depend on the parallelism.
func linearCase(c diffCase) diffCase {
	src := c.graph()
	n := src.NumOperators()
	lin := c
	lin.name = c.name + "/linear"
	lin.graph = func() *dataflow.Graph {
		g := dataflow.NewGraph(src.Name)
		for i := 0; i < n; i++ {
			op := src.Operator(i)
			op.Profile.SyncCost, op.Profile.CrossCost, op.Profile.ExternalCapRPS = 0, 0, 0
			if err := g.AddOperator(op); err != nil {
				panic(err)
			}
		}
		for i := 0; i < n; i++ {
			for _, s := range src.Successors(i) {
				if err := g.Connect(src.Operator(i).Name, src.Operator(s).Name); err != nil {
					panic(err)
				}
			}
		}
		return g
	}
	lin.cluster = func() *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{Machines: []cluster.Machine{{Name: "big", Cores: 4096}}})
		if err != nil {
			panic(err)
		}
		return cl
	}
	return lin
}

// lawEngine builds an engine for c at parallelism par, its rate scaled
// by rateScale, with an optional backlog of preload seconds of input
// already in the topic.
func lawEngine(t *testing.T, c diffCase, par dataflow.ParallelismVector, rateScale float64, noise bool, seed uint64, tickSec, preload float64) *flink.Engine {
	t.Helper()
	topic, err := kafka.NewTopic(scaledRate{c.schedule, rateScale})
	if err != nil {
		t.Fatal(err)
	}
	topic.Produce(0, preload)
	e, err := flink.New(flink.Config{
		Graph:              c.graph(),
		Cluster:            c.cluster(),
		Topic:              topic,
		Seed:               seed,
		NoNoise:            !noise,
		TickSec:            tickSec,
		RestartDowntimeSec: 4,
		InitialParallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// window is a measurement window's summary and per-operator detail.
type window struct {
	flink.Measurement
	flink.OperatorRates
}

// tickWindow runs one tick as its own measurement window.
func tickWindow(e *flink.Engine) window {
	e.ResetWindow()
	e.Tick()
	w := window{Measurement: e.Measure()}
	e.OperatorRates(&w.OperatorRates)
	return w
}

// TestScalingRateAndParallelismKeepsUtilization: with interference off
// and linear operators, multiplying the input rate and every operator's
// parallelism by the same factor leaves each operator's utilization
// λ_i / (v_i·k_i) unchanged at every tick — through overload, idling
// and the schedule's steps — and scales the throughput by the factor.
func TestScalingRateAndParallelismKeepsUtilization(t *testing.T) {
	sawOverload, sawSlack := false, false
	for caseSeed := uint64(1); caseSeed <= 6; caseSeed++ {
		c := linearCase(generatedCase(caseSeed))
		pick := stat.NewRNG(caseSeed * 104729)
		n := c.graph().NumOperators()
		par := make(dataflow.ParallelismVector, n)
		for i := range par {
			par[i] = 1 + pick.Intn(6)
		}
		for _, factor := range []int{2, 3} {
			scaled := make(dataflow.ParallelismVector, n)
			for i := range par {
				scaled[i] = factor * par[i]
			}
			for _, ns := range noiseSettings {
				name := fmt.Sprintf("%s/x%d/noise=%t/seed=%d", c.name, factor, ns.noise, ns.seed)
				t.Run(name, func(t *testing.T) {
					base := lawEngine(t, c, par, 1, ns.noise, ns.seed, 1, 0)
					big := lawEngine(t, c, scaled, float64(factor), ns.noise, ns.seed, 1, 0)
					for tick := 0; tick < 300; tick++ {
						mb, ms := tickWindow(base), tickWindow(big)
						if want := float64(factor) * mb.ThroughputRPS; !near(ms.ThroughputRPS, want, want) {
							t.Fatalf("tick %d: throughput %v at x%d, want %d × %v", tick, ms.ThroughputRPS, factor, factor, mb.ThroughputRPS)
						}
						for i := 0; i < n; i++ {
							ub := mb.LambdaRPS[i] / (mb.TrueRatePerInstance[i] * float64(par[i]))
							us := ms.LambdaRPS[i] / (ms.TrueRatePerInstance[i] * float64(scaled[i]))
							if !near(us, ub, ub) {
								t.Fatalf("tick %d op %d: utilization %v at x%d, %v at x1", tick, i, us, factor, ub)
							}
							sawOverload = sawOverload || ub >= 1
							sawSlack = sawSlack || (ub > 0 && ub < 1)
						}
					}
				})
			}
		}
	}
	if !sawOverload || !sawSlack {
		t.Fatalf("the law was checked on overloaded=%t and slack=%t operators; want both", sawOverload, sawSlack)
	}
}

// TestLagIsIntegralOfProducedMinusConsumed: the lag a measurement
// reports at t equals the lag at 0, plus the schedule's input integrated
// over [0, t], minus the throughput the engine reported integrated over
// its measured ticks — through overload, idling, rescale outages and an
// initial backlog. It is checked on the paper's workloads and on random
// DAGs, with interference off (their linear form) and on (as built).
func TestLagIsIntegralOfProducedMinusConsumed(t *testing.T) {
	var cases []diffCase
	for _, c := range paperCases() {
		cases = append(cases, c, linearCase(c))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		c := generatedCase(seed)
		cases = append(cases, c, linearCase(c))
	}
	for ci, c := range cases {
		tickSec := 1.0
		if ci%3 == 1 {
			tickSec = 0.5
		}
		for _, ns := range noiseSettings {
			t.Run(fmt.Sprintf("%s/noise=%t/seed=%d", c.name, ns.noise, ns.seed), func(t *testing.T) {
				n := c.graph().NumOperators()
				e := lawEngine(t, c, dataflow.Uniform(n, 2), 1, ns.noise, ns.seed, tickSec, 50)
				drive := stat.NewRNG(ns.seed*7919 + uint64(ci))
				lag := e.Topic().Lag()
				if lag <= 0 {
					t.Fatalf("initial backlog %v, want > 0", lag)
				}
				var produced, consumed float64
				for tick := 0; tick < 400; tick++ {
					if tick%90 == 45 {
						p := make(dataflow.ParallelismVector, n)
						for i := range p {
							p[i] = 1 + drive.Intn(c.maxPar)
						}
						if err := e.SetParallelism(p); err != nil {
							t.Fatal(err)
						}
					}
					produced += c.schedule.RateAt(e.Now()) * tickSec
					m := tickWindow(e)
					consumed += m.ThroughputRPS * m.WindowSec
					want := lag + produced - consumed
					if !near(m.LagRecords, want, lag+produced) {
						t.Fatalf("tick %d: lag %v, want %v + %v − %v = %v", tick, m.LagRecords, lag, produced, consumed, want)
					}
					if m.LagRecords < -lawTol*produced {
						t.Fatalf("tick %d: negative lag %v", tick, m.LagRecords)
					}
				}
				if e.Restarts() == 0 || consumed == 0 {
					t.Fatalf("restarts %d, consumed %v: the run exercised no outage or no consumption", e.Restarts(), consumed)
				}
			})
		}
	}
}
