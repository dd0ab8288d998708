// Package ds2 reproduces DS2 (Kalavri et al., OSDI 2018), the
// state-of-the-art dataflow auto-scaler AuTraScale compares against.
//
// DS2 instruments operators for their *true* processing/output rates and
// computes, in one shot per iteration, the parallelism each operator
// needs for the job to sustain the source rate, assuming performance
// scales linearly with instances:
//
//	k_i = ceil(lambda_i / (u·v̄_i))
//
// where lambda_i is the arrival rate operator i would see at the target
// source rate, v̄_i its measured per-instance true rate, and u the
// deployment headroom. The paper's criticism (and AuTraScale's Eq. 3
// extension) is twofold: the linear assumption ignores interference, and
// when an external bottleneck caps an operator's rate DS2 keeps
// prescribing ever-larger parallelism and never converges.
//
// The rule lives here; Adapter (adapter.go) is its one loop, behind
// core.Policy for the registry, the fleet, the tournament and the
// paper's Fig. 8.
package ds2

import (
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
)

const (
	// targetUtilization is the headroom u the rule sizes for: a common
	// production setting that keeps clear of backpressure (1 would be
	// the pure linear rule). Fig. 8 and every other caller run it.
	targetUtilization = 0.75
	// epsilon is the relative slack for declaring the throughput target
	// met.
	epsilon = 0.02
	// MaxIterations bounds the offline loop: the windows judged per
	// trigger, the trigger window included. DS2 has no termination
	// rule of its own beyond the fixed point, so a runaway external
	// bottleneck hits this bound.
	MaxIterations = 10
)

// step computes DS2's next configuration from a window's rates: it projects
// arrival rates through the DAG at the target source rate and sizes each
// operator by the linear rule, capped at pmax. Measured true rates of
// zero (an operator that saw no data) fall back to keeping the current
// parallelism.
func step(g *dataflow.Graph, m *flink.OperatorRates, pmax int, rate float64) (dataflow.ParallelismVector, error) {
	n := g.NumOperators()
	if len(m.TrueRatePerInstance) != n || len(m.Par) != n {
		return nil, fmt.Errorf("ds2: measurement has %d operators, graph has %d",
			len(m.TrueRatePerInstance), n)
	}
	next := make(dataflow.ParallelismVector, n)
	// proj[i] accumulates the projected arrival rate at operator i when
	// the source runs at the target rate.
	proj := make([]float64, n)
	for _, src := range g.Sources() {
		proj[src] = rate
	}
	for _, i := range g.TopoOrder() {
		v := m.TrueRatePerInstance[i]
		if v <= 0 {
			next[i] = m.Par[i]
		} else {
			k := int(math.Ceil(proj[i] / (targetUtilization * v)))
			next[i] = min(max(k, 1), pmax)
		}
		out := proj[i] * g.Operator(i).Selectivity
		for _, s := range g.Successors(i) {
			proj[s] += out
		}
	}
	return next, nil
}

// targetMet reports whether the measured throughput sustains the target
// rate within epsilon.
func targetMet(throughput, rate float64) bool {
	return throughput >= rate*(1-epsilon)
}
