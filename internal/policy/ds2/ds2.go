// Package ds2 reproduces DS2 (Kalavri et al., OSDI 2018), the
// state-of-the-art dataflow auto-scaler AuTraScale compares against.
//
// DS2 instruments operators for their *true* processing/output rates and
// computes, in one shot per iteration, the parallelism each operator
// needs for the job to sustain the source rate, assuming performance
// scales linearly with instances:
//
//	k_i = ceil(lambda_i / v̄_i)
//
// where lambda_i is the arrival rate operator i would see at the target
// source rate and v̄_i its measured per-instance true rate. The paper's
// criticism (and AuTraScale's Eq. 3 extension) is twofold: the linear
// assumption ignores interference, and when an external bottleneck caps
// an operator's rate DS2 keeps prescribing ever-larger parallelism and
// never converges — it has no same-configuration termination rule.
//
// The package holds both halves of the contender: Policy is the rule and
// Run its offline loop (the paper's Fig. 8 baseline); Adapter puts the
// same rule behind core.Policy for the registry, the fleet and the
// tournament.
package ds2

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
)

// Policy computes DS2 scaling decisions.
type Policy struct {
	// PMax caps each operator's parallelism (the resource ceiling).
	PMax int
	// TargetRate is the source rate (records/s) the job must sustain.
	TargetRate float64
	// Epsilon is the relative slack for declaring the throughput target
	// met (default 0.02).
	Epsilon float64
	// TargetUtilization is the deployment headroom u applied to the
	// linear rule: k_i = ceil(lambda_i / (u·v̄_i)). 1.0 (the default)
	// is the pure paper rule; production deployments commonly size for
	// u ≈ 0.8–0.9 to keep clear of backpressure, which is the setting
	// the Fig. 8 comparison uses.
	TargetUtilization float64
}

// NewPolicy validates and builds a Policy.
func NewPolicy(pmax int, targetRate float64) (*Policy, error) {
	if pmax < 1 {
		return nil, errors.New("ds2: PMax must be >= 1")
	}
	if targetRate <= 0 {
		return nil, errors.New("ds2: target rate must be > 0")
	}
	return &Policy{PMax: pmax, TargetRate: targetRate, Epsilon: 0.02, TargetUtilization: 1.0}, nil
}

// Step computes DS2's next configuration from a measurement: it projects
// arrival rates through the DAG at the target source rate and sizes each
// operator by the linear rule. Measured true rates of zero (an operator
// that saw no data) fall back to keeping the current parallelism.
func (p *Policy) Step(g *dataflow.Graph, m flink.Measurement) (dataflow.ParallelismVector, error) {
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
		proj[src] = p.TargetRate
	}
	u := p.TargetUtilization
	if u <= 0 || u > 1 {
		u = 1
	}
	for _, i := range g.TopoOrder() {
		v := m.TrueRatePerInstance[i]
		if v <= 0 {
			next[i] = m.Par[i]
		} else {
			k := int(math.Ceil(proj[i] / (u * v)))
			if k < 1 {
				k = 1
			}
			if k > p.PMax {
				k = p.PMax
			}
			next[i] = k
		}
		out := proj[i] * g.Operator(i).Selectivity
		for _, s := range g.Successors(i) {
			proj[s] += out
		}
	}
	return next, nil
}

// TargetMet reports whether the measured throughput sustains the target
// rate within Epsilon.
func (p *Policy) TargetMet(throughput float64) bool {
	return throughput >= p.TargetRate*(1-p.Epsilon)
}

// Result summarizes an offline DS2 run.
type Result struct {
	Final      dataflow.ParallelismVector
	Iterations int
	History    []IterationRecord
}

// IterationRecord captures one reconfigure-run-measure cycle.
type IterationRecord struct {
	Par           dataflow.ParallelismVector
	ThroughputRPS float64
	ProcLatencyMS float64
	CPUUsedCores  float64
	MemUsedMB     float64
}

// RunOptions controls Run.
type RunOptions struct {
	// MaxIterations bounds the loop; DS2 itself has no same-config
	// termination, so a runaway external bottleneck hits this bound
	// (default 10).
	MaxIterations int
	// WarmupSec/MeasureSec define the policy running window per
	// iteration (defaults 30/120 simulated seconds).
	WarmupSec, MeasureSec float64
}

func (o *RunOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10
	}
	if o.WarmupSec <= 0 {
		o.WarmupSec = 30
	}
	if o.MeasureSec <= 0 {
		o.MeasureSec = 120
	}
}

// Run executes DS2 in offline mode against the engine: measure, compute,
// reconfigure, repeat until the throughput target is met or the iteration
// budget is exhausted (DS2's missing termination rule, §III-C).
func (p *Policy) Run(e *flink.Engine, opts RunOptions) (Result, error) {
	opts.defaults()
	var res Result
	m := e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.History = append(res.History, IterationRecord{
			Par:           m.Par.Clone(),
			ThroughputRPS: m.ThroughputRPS,
			ProcLatencyMS: m.ProcLatencyMS,
			CPUUsedCores:  m.CPUUsedCores,
			MemUsedMB:     m.MemUsedMB,
		})
		res.Iterations = iter + 1
		if p.TargetMet(m.ThroughputRPS) {
			res.Final = m.Par.Clone()
			return res, nil
		}
		next, err := p.Step(e.Graph(), m)
		if err != nil {
			return res, err
		}
		if err := e.SetParallelism(next); err != nil {
			return res, err
		}
		m = e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	}
	res.Final = m.Par.Clone()
	return res, nil
}
