// Package stat provides the statistical primitives the rest of the system
// relies on: a reproducible PRNG, the standard normal distribution (PDF,
// CDF), the normal and log-normal sampling the simulator draws from, an
// EWMA, and the mean and percentiles.
//
// Everything is deterministic given a seed so simulations and experiments
// reproduce exactly.
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

// Normal returns a standard normal sample (Box–Muller, one value per call).
func (r *RNG) Normal() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
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
