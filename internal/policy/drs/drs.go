// Package drs reproduces DRS (Fu et al.), the queueing-theory baseline of
// the paper's evaluation (§V-C). DRS models every operator as an M/M/c
// station in an open Jackson network, predicts the end-to-end expected
// sojourn time of a record, and greedily allocates parallelism from low
// to high — always incrementing the operator whose extra instance most
// reduces the predicted latency — until the prediction meets the target.
//
// The paper runs DRS with two rate metrics:
//
//   - VariantTrueRate: service rates from the busy-time (true) metric;
//   - VariantObservedRate: service rates from the observed metric, which
//     includes waiting time and therefore *underestimates* capacity
//     whenever operators are partially idle, driving heavy
//     over-provisioning.
//
// Either way the queueing model assumes service rates stay constant as
// parallelism grows; interference makes this wrong, which is why DRS's
// terminal configurations sometimes still violate QoS (paper Fig. 6) or
// waste resources (Fig. 7).
//
// The package holds both halves of the contender: Policy is the queueing
// model and Run its calibrated control loop (the paper's Table II/III and
// Fig. 7 baseline); Adapter puts the raw model behind core.Policy for the
// registry, the fleet and the tournament.
package drs

import (
	"errors"
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/queueing"
)

// Variant selects which rate metric feeds the queueing model.
type Variant int

// Variants.
const (
	VariantTrueRate Variant = iota
	VariantObservedRate
)

// String names the variant like the paper's tables.
func (v Variant) String() string {
	switch v {
	case VariantTrueRate:
		return "DRS(true)"
	case VariantObservedRate:
		return "DRS(observed)"
	default:
		return fmt.Sprintf("DRS(%d)", int(v))
	}
}

// Policy computes DRS allocations.
type Policy struct {
	Variant Variant
	// PMax caps per-operator parallelism.
	PMax int
	// TargetRate is the source input rate to provision for.
	TargetRate float64
	// TargetLatencyMS is the end-to-end latency requirement.
	TargetLatencyMS float64
	// StabilityMargin keeps ρ_i <= margin when sizing the initial
	// stable configuration (default 0.9).
	StabilityMargin float64
}

// NewPolicy validates and builds a Policy.
func NewPolicy(v Variant, pmax int, targetRate, targetLatencyMS float64) (*Policy, error) {
	if pmax < 1 {
		return nil, errors.New("drs: PMax must be >= 1")
	}
	if targetRate <= 0 || targetLatencyMS <= 0 {
		return nil, errors.New("drs: targets must be > 0")
	}
	return &Policy{
		Variant:         v,
		PMax:            pmax,
		TargetRate:      targetRate,
		TargetLatencyMS: targetLatencyMS,
		StabilityMargin: 0.9,
	}, nil
}

// serviceRates extracts the per-instance service rates the variant uses.
func (p *Policy) serviceRates(m flink.Measurement) []float64 {
	if p.Variant == VariantObservedRate {
		return m.ObservedRatePerInstance
	}
	return m.TrueRatePerInstance
}

// arrivals projects per-operator arrival rates at the target source rate.
func arrivals(g *dataflow.Graph, target float64) []float64 {
	n := g.NumOperators()
	proj := make([]float64, n)
	for _, src := range g.Sources() {
		proj[src] = target
	}
	for _, i := range g.TopoOrder() {
		out := proj[i] * g.Operator(i).Selectivity
		for _, s := range g.Successors(i) {
			proj[s] += out
		}
	}
	return proj
}

// predictLatencyMS evaluates the Jackson-network latency model for a
// candidate configuration: Σ_i (service time + M/M/c wait), in ms.
// Unstable stations yield +Inf.
func predictLatencyMS(lambdas, mus []float64, par dataflow.ParallelismVector) float64 {
	var total float64
	for i := range lambdas {
		mu := mus[i]
		if mu <= 0 {
			continue
		}
		s, err := queueing.MMcSojourn(lambdas[i], mu, par[i])
		if err != nil {
			return math.Inf(1)
		}
		total += s * 1000
	}
	return total
}

// Recommend computes DRS's configuration for the measured service rates
// on the raw M/M/c model: the minimal stable allocation, then greedy
// increments until the model predicts the target is met (see allocate).
func (p *Policy) Recommend(g *dataflow.Graph, m flink.Measurement) (dataflow.ParallelismVector, error) {
	n := g.NumOperators()
	mus := p.serviceRates(m)
	if len(mus) != n {
		return nil, fmt.Errorf("drs: measurement has %d operators, graph has %d", len(mus), n)
	}
	lambdas := arrivals(g, p.TargetRate)
	return p.allocate(lambdas, mus, m.Par, 0, func(par dataflow.ParallelismVector) float64 {
		return predictLatencyMS(lambdas, mus, par)
	}), nil
}

// allocate is DRS's allocation from low to high, shared by the raw model
// (Recommend) and the calibrated one (Run): first the minimal stable
// configuration for the measured service rates (ρ_i <= StabilityMargin;
// an operator with no signal keeps its current parallelism), then greedy
// increments of the operator whose extra instance most reduces predict —
// until predict meets the target, every operator is at PMax, or no
// increment improves it by more than eps.
func (p *Policy) allocate(lambdas, mus []float64, cur dataflow.ParallelismVector, eps float64,
	predict func(dataflow.ParallelismVector) float64) dataflow.ParallelismVector {
	par := make(dataflow.ParallelismVector, len(lambdas))
	for i := range par {
		if mus[i] <= 0 {
			par[i] = cur[i]
			continue
		}
		k := int(math.Ceil(lambdas[i] / (mus[i] * p.StabilityMargin)))
		par[i] = min(max(k, 1), p.PMax)
	}
	for {
		lat := predict(par)
		if !(lat > p.TargetLatencyMS) { // met — or NaN, which no increment can improve
			return par
		}
		bestOp, bestLat := -1, math.Inf(1)
		for i := range par {
			if par[i] >= p.PMax {
				continue
			}
			par[i]++
			if l := predict(par); l < bestLat {
				bestLat, bestOp = l, i
			}
			par[i]--
		}
		if bestOp == -1 || bestLat >= lat-eps {
			return par // resource ceiling or no improvement possible
		}
		par[bestOp]++
	}
}

// congestionIndex is the Jackson-style congestion summary Σ ρ_i/(1−ρ_i)
// for a candidate configuration; +Inf when any station is unstable.
func congestionIndex(lambdas, mus []float64, par dataflow.ParallelismVector) float64 {
	var x float64
	for i := range lambdas {
		if mus[i] <= 0 {
			continue
		}
		rho := queueing.Rho(lambdas[i], mus[i], par[i])
		if rho >= 1 {
			return math.Inf(1)
		}
		x += rho / (1 - rho)
	}
	return x
}

// latencyFit is DRS's calibrated queueing model: measured latency is
// regressed as y ≈ b + c·x on the congestion index x. The queueing theory
// supplies the *shape* (how x varies with parallelism); the coefficients
// are calibrated from observations. The model's blind spots — service
// rates degrading with parallelism, communication costs growing with it —
// are exactly the interference effects the paper blames for DRS's errors.
type latencyFit struct {
	xs, ys []float64
}

func (f *latencyFit) add(x, y float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return
	}
	f.xs = append(f.xs, x)
	f.ys = append(f.ys, y)
}

// coeffs returns (b, c), both clamped at 0. With a single observation it
// splits the measured latency evenly between base and congestion.
func (f *latencyFit) coeffs() (b, c float64) {
	n := len(f.xs)
	switch n {
	case 0:
		return 0, 1
	case 1:
		if f.xs[0] <= 0 {
			return f.ys[0], 1
		}
		return f.ys[0] / 2, f.ys[0] / 2 / f.xs[0]
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += f.xs[i]
		sy += f.ys[i]
		sxx += f.xs[i] * f.xs[i]
		sxy += f.xs[i] * f.ys[i]
	}
	den := float64(n)*sxx - sx*sx
	if den <= 1e-12 {
		return sy / float64(n) / 2, 1
	}
	c = (float64(n)*sxy - sx*sy) / den
	if c < 0 {
		c = 0
	}
	b = (sy - c*sx) / float64(n)
	if b < 0 {
		b = 0
	}
	return b, c
}

// predict evaluates the calibrated model at a candidate configuration.
func (f *latencyFit) predict(lambdas, mus []float64, par dataflow.ParallelismVector) float64 {
	b, c := f.coeffs()
	return b + c*congestionIndex(lambdas, mus, par)
}

// Result summarizes a DRS control run.
type Result struct {
	Final      dataflow.ParallelismVector
	Iterations int
	// LatencyMet reports whether the *measured* latency finally met the
	// target (the model may claim success while reality disagrees).
	LatencyMet bool
	// ThroughputMet reports whether the throughput sustained the target
	// rate (DRS does not check this — paper Table II's WordCount
	// scale-up row shows DRS(true) violating it).
	ThroughputMet bool
	History       []IterationRecord
}

// IterationRecord is one reconfigure-run-measure cycle.
type IterationRecord struct {
	Par           dataflow.ParallelismVector
	ThroughputRPS float64
	ProcLatencyMS float64
	CPUUsedCores  float64
	MemUsedMB     float64
}

// RunOptions controls Run.
type RunOptions struct {
	MaxIterations         int     // default 12
	WarmupSec, MeasureSec float64 // defaults 30/120
}

func (o *RunOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 12
	}
	if o.WarmupSec <= 0 {
		o.WarmupSec = 30
	}
	if o.MeasureSec <= 0 {
		o.MeasureSec = 120
	}
}

// Run executes the DRS control loop: measure, calibrate the queueing
// model, derive the minimal configuration the model predicts will meet
// the target (greedy low-to-high allocation), reconfigure, and repeat —
// "until the latency meets the requirements or the total number of new
// parallelism schemes is over the upper limit of resources" (§V-A). When
// the calibrated model claims the current configuration should already
// meet the target but reality disagrees, the highest-utilization operator
// gets one more instance (the classic model-error escape).
func (p *Policy) Run(e *flink.Engine, opts RunOptions) (Result, error) {
	opts.defaults()
	var res Result
	lambdas := arrivals(e.Graph(), p.TargetRate)
	fit := &latencyFit{}

	m := e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		mus := p.serviceRates(m)
		fit.add(congestionIndex(lambdas, mus, m.Par), m.ProcLatencyMS)
		res.Iterations = iter + 1
		res.History = append(res.History, IterationRecord{
			Par:           m.Par.Clone(),
			ThroughputRPS: m.ThroughputRPS,
			ProcLatencyMS: m.ProcLatencyMS,
			CPUUsedCores:  m.CPUUsedCores,
			MemUsedMB:     m.MemUsedMB,
		})
		latencyMet := m.ProcLatencyMS <= p.TargetLatencyMS
		// The calibrated model's plan: allocate until the fit claims the
		// target is met, or nothing improves it.
		next := p.allocate(lambdas, mus, m.Par, 1e-9, func(par dataflow.ParallelismVector) float64 {
			return fit.predict(lambdas, mus, par)
		})
		switch {
		case latencyMet && next.Total() >= m.Par.Total():
			// QoS holds and the model offers nothing cheaper — done.
			// (This is also where the observed-rate variant gets stuck
			// over-provisioned: idle instances depress the observed
			// rates, so its "minimal" plan never shrinks.)
			res.Final = m.Par.Clone()
			res.LatencyMet = true
			res.ThroughputMet = m.ThroughputRPS >= p.TargetRate*0.98
			return res, nil
		case !latencyMet && next.Equal(m.Par):
			// Model says this should suffice; reality disagrees — add
			// an instance to the most utilized operator.
			worst := mostUtilized(lambdas, mus, next, p.PMax)
			if worst == -1 {
				// Everything at the ceiling.
				res.Final = m.Par.Clone()
				res.LatencyMet = false
				res.ThroughputMet = m.ThroughputRPS >= p.TargetRate*0.98
				return res, nil
			}
			next[worst]++
		}
		if err := e.SetParallelism(next); err != nil {
			return res, err
		}
		m = e.MeasureSteady(opts.WarmupSec, opts.MeasureSec)
	}
	res.Final = m.Par.Clone()
	res.LatencyMet = m.ProcLatencyMS <= p.TargetLatencyMS
	res.ThroughputMet = m.ThroughputRPS >= p.TargetRate*0.98
	return res, nil
}

// mostUtilized picks the operator the model-error escape bumps: the
// highest-ρ operator still below the ceiling with a measured service
// rate, or -1 when every operator is at the ceiling.
func mostUtilized(lambdas, mus []float64, par dataflow.ParallelismVector, pmax int) int {
	worst, worstRho := -1, -1.0
	for i := range par {
		if par[i] >= pmax || mus[i] <= 0 {
			continue
		}
		if rho := queueing.Rho(lambdas[i], mus[i], par[i]); rho > worstRho {
			worstRho = rho
			worst = i
		}
	}
	return worst
}
