// Package drs reproduces DRS (Fu et al.), the queueing-theory baseline of
// the paper's evaluation (§V-C). DRS models every operator as an M/M/c
// station in an open Jackson network and greedily allocates parallelism
// from low to high — always incrementing the operator whose extra
// instance most reduces the predicted latency — until the prediction
// meets the target. The prediction is calibrated: measured latency is
// regressed on the network's congestion index Σρ/(1−ρ) (see latencyFit),
// because the raw M/M/c sojourn time is sub-millisecond at streaming
// rates.
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
// The model lives here; Adapter (adapter.go) is its one control loop,
// behind core.Policy for the registry, the fleet, the tournament and the
// paper's Tables II/III.
package drs

import (
	"fmt"
	"math"

	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
)

// Variant selects which rate metric feeds the queueing model.
type Variant int

// Variants.
const (
	VariantTrueRate Variant = iota
	VariantObservedRate
)

// String names the variant like the policy registry.
func (v Variant) String() string {
	switch v {
	case VariantTrueRate:
		return "drs-true"
	case VariantObservedRate:
		return "drs-observed"
	default:
		return fmt.Sprintf("drs(%d)", int(v))
	}
}

const (
	// stabilityMargin keeps ρ_i <= margin when sizing the initial stable
	// configuration.
	stabilityMargin = 0.9
	// MaxIterations bounds the control loop: the windows judged per
	// trigger, the trigger window included — the paper's "upper limit"
	// on new parallelism schemes in the elasticity tests.
	MaxIterations = 25
)

// serviceRates extracts the per-instance service rates the variant uses.
func (v Variant) serviceRates(m *flink.OperatorRates) []float64 {
	if v == VariantObservedRate {
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

// allocate is DRS's allocation from low to high: first the minimal
// stable configuration for the measured service rates (ρ_i <=
// stabilityMargin; an operator with no signal keeps its current
// parallelism), then greedy increments of the operator whose extra
// instance most reduces the fit's prediction — until the prediction
// meets targetMS, every operator is at pmax, or no increment improves it
// by more than 1e-9.
func allocate(lambdas, mus []float64, cur dataflow.ParallelismVector, pmax int, targetMS float64,
	fit *latencyFit) dataflow.ParallelismVector {
	par := make(dataflow.ParallelismVector, len(lambdas))
	for i := range par {
		if mus[i] <= 0 {
			par[i] = cur[i]
			continue
		}
		k := int(math.Ceil(lambdas[i] / (mus[i] * stabilityMargin)))
		par[i] = min(max(k, 1), pmax)
	}
	for {
		lat := fit.predict(lambdas, mus, par)
		if !(lat > targetMS) { // met — or NaN, which no increment can improve
			return par
		}
		bestOp, bestLat := -1, math.Inf(1)
		for i := range par {
			if par[i] >= pmax {
				continue
			}
			par[i]++
			if l := fit.predict(lambdas, mus, par); l < bestLat {
				bestLat, bestOp = l, i
			}
			par[i]--
		}
		if bestOp == -1 || bestLat >= lat-1e-9 {
			return par // resource ceiling or no improvement possible
		}
		par[bestOp]++
	}
}

// rho is an M/M/c station's utilization λ/(c·μ); +Inf at zero capacity.
func rho(lambda, mu float64, c int) float64 {
	capTotal := float64(c) * mu
	if capTotal <= 0 {
		return math.Inf(1)
	}
	return lambda / capTotal
}

// congestionIndex is the Jackson-style congestion summary Σ ρ_i/(1−ρ_i)
// for a candidate configuration; +Inf when any station is unstable.
func congestionIndex(lambdas, mus []float64, par dataflow.ParallelismVector) float64 {
	var x float64
	for i := range lambdas {
		if mus[i] <= 0 {
			continue
		}
		r := rho(lambdas[i], mus[i], par[i])
		if r >= 1 {
			return math.Inf(1)
		}
		x += r / (1 - r)
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

// mostUtilized picks the operator the model-error escape bumps: the
// highest-ρ operator still below the ceiling with a measured service
// rate, or -1 when every operator is at the ceiling.
func mostUtilized(lambdas, mus []float64, par dataflow.ParallelismVector, pmax int) int {
	worst, worstRho := -1, -1.0
	for i := range par {
		if par[i] >= pmax || mus[i] <= 0 {
			continue
		}
		if r := rho(lambdas[i], mus[i], par[i]); r > worstRho {
			worstRho = r
			worst = i
		}
	}
	return worst
}
