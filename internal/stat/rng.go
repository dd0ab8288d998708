// Package stat provides the statistical primitives the rest of the system
// relies on: a reproducible PRNG (SplitMix64), the standard normal
// distribution (PDF, CDF), the normal and log-normal sampling the
// simulator draws from, an EWMA, and the mean and percentiles.
//
// Normal samples come from a ziggurat, which settles almost every sample
// with one draw and one table lookup. The simulator draws several per
// tick (rate noise per operator, latency noise, a log-normal latency
// sample), so this sampler sets much of the cost of a simulated second.
//
// Everything is deterministic given a seed, and a generator's whole
// position is one word (State/SetState), so simulations and experiments
// reproduce exactly and resume mid-stream.
package stat

import "math"

// RNG is a small, fast, reproducible pseudo-random generator based on
// SplitMix64. It is not safe for concurrent use; give each goroutine its
// own RNG.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// next advances the SplitMix64 state and returns the next 64 random bits.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly random 64-bit value.
func (r *RNG) Uint64() uint64 { return r.next() }

// State returns the generator's position in its stream. SplitMix64's
// entire state is one word, so (State, SetState) round-trips a generator
// exactly — the persistence layer snapshots simulations mid-stream with
// it.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator: the next draw after SetState(s)
// equals the next draw of any generator whose State was s.
func (r *RNG) SetState(s uint64) { r.state = s }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stat: Intn with n <= 0")
	}
	return int(r.next() % uint64(n))
}

// Normal returns a standard normal sample by Marsaglia and Tsang's
// ziggurat ("The Ziggurat Method for Generating Random Variables",
// J. Stat. Softw. 5(8), 2000): 128 layers of equal area under the
// density, the base layer's right edge at zigR. One 64-bit draw picks a
// layer (bits 32–38) and a signed abscissa (the low 32 bits); inside the
// layer's rectangle, more than 99% of the time, that abscissa is the
// sample and no transcendental function is evaluated. Otherwise the
// draw is settled by the layer's wedge test (one Exp) or, in the base
// layer, by Marsaglia's tail method (two Logs), each consuming further
// uniforms, so a sample consumes one or more draws of the stream.
//
// The algorithm, tables and uniforms are those of math/rand/v2's
// NormFloat64, so Normal equals rand.New(r).NormFloat64() on a
// generator in the same state, bit for bit.
func (r *RNG) Normal() float64 {
	for {
		u := r.next()
		j := int32(u)
		i := u >> 32 & 0x7f
		x := float64(j) * float64(zigW[i])
		if absInt32(j) < zigK[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(r.lowFloat64()) * (1 / zigR)
				y := -math.Log(r.lowFloat64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if zigF[i]+float32(r.lowFloat64())*(zigF[i-1]-zigF[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// lowFloat64 is a uniform value in [0, 1) from the low 53 bits of a
// draw — math/rand/v2's Float64, which the ziggurat's slow paths use.
func (r *RNG) lowFloat64() float64 {
	return float64(r.next()<<11>>11) / (1 << 53)
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// The ziggurat's layers: zigR is the right edge of the base layer and
// zigV the area of every layer.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

// Per layer i with right edge x_i: zigW[i] = x_i/2³¹ scales the signed
// 32-bit j to an abscissa, zigK[i] = 2³¹·x_{i−1}/x_i bounds the |j| whose
// abscissa lies left of the next edge inward, where the whole layer is
// under the density, and zigF[i] is the density exp(−x_i²/2) at the
// edge. Index 0 is the base strip for zigK and zigW — a rectangle plus
// the tail beyond zigR, of area zigV together — and the density's peak
// for zigF.
var (
	zigK [128]uint32
	zigW [128]float32
	zigF [128]float32
)

// init builds the tables from the closed forms, walking the edges inward
// from zigR: the next edge x' makes the slab of width x between the
// heights f(x) and f(x') hold area zigV, so f(x') = zigV/x + f(x) with
// f(x) = exp(−x²/2).
func init() {
	const m = 1 << 31
	x, prev := zigR, zigR
	q := zigV / math.Exp(-0.5*x*x)
	zigK[0] = uint32(x / q * m)
	zigW[0] = float32(q / m)
	zigW[127] = float32(x / m)
	zigF[0] = 1
	zigF[127] = float32(math.Exp(-0.5 * x * x))
	for i := 126; i >= 1; i-- {
		x = math.Sqrt(-2 * math.Log(zigV/x+math.Exp(-0.5*x*x)))
		zigK[i+1] = uint32(x / prev * m)
		prev = x
		zigF[i] = float32(math.Exp(-0.5 * x * x))
		zigW[i] = float32(x / m)
	}
}

// NormalMS returns a normal sample with the given mean and standard
// deviation.
func (r *RNG) NormalMS(mean, std float64) float64 {
	return mean + std*r.Normal()
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormalMS(mu, sigma))
}
