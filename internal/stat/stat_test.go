package stat

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

// normalSeeds are the fixed seeds the normal sampler is proven at.
var normalSeeds = []uint64{1, 2, 3}

const normalDraws = 1_000_000

// TestNormalMatchesStandardLibrary is the differential oracle: Normal is
// math/rand/v2's NormFloat64 over the same SplitMix64 stream, so the two
// agree bit for bit — fast path, wedges and tail alike — and leave their
// generators in the same state.
func TestNormalMatchesStandardLibrary(t *testing.T) {
	for _, seed := range normalSeeds {
		ours, src := NewRNG(seed), NewRNG(seed)
		oracle := rand.New(src)
		for i := 0; i < normalDraws; i++ {
			got, want := ours.Normal(), oracle.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: Normal = %v, NormFloat64 = %v", seed, i, got, want)
			}
		}
		if ours.State() != src.State() {
			t.Fatalf("seed %d: state %#x after %d draws, oracle's %#x", seed, ours.State(), normalDraws, src.State())
		}
	}
}

// TestNormalDistribution is the distribution proof at each fixed seed
// and 10⁶ draws: the Kolmogorov–Smirnov statistic against NormCDF is
// under its 1% critical value, the counts beyond 2σ, 3σ and 4σ lie
// inside their binomial 99.9% bounds, and the mean, variance, skewness
// and excess kurtosis each lie within 4 standard errors of 0, 1, 0, 0.
func TestNormalDistribution(t *testing.T) {
	const n = normalDraws
	// Kolmogorov's limiting distribution puts its 99th percentile at
	// 1.6276; at n = 10⁶ the finite-n correction is below 10⁻³ of it.
	ksCrit := 1.6276 / math.Sqrt(n)
	for _, seed := range normalSeeds {
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal()
		}

		var s1, s2, s3, s4 float64
		for _, x := range xs {
			s1 += x
		}
		mean := s1 / n
		for _, x := range xs {
			d := x - mean
			d2 := d * d
			s2 += d2
			s3 += d2 * d
			s4 += d2 * d2
		}
		variance := s2 / n
		skew := s3 / n / math.Pow(variance, 1.5)
		kurt := s4/n/(variance*variance) - 3
		for _, m := range []struct {
			name      string
			got, want float64
			se        float64
		}{
			{"mean", mean, 0, math.Sqrt(1.0 / n)},
			{"variance", variance, 1, math.Sqrt(2.0 / n)},
			{"skewness", skew, 0, math.Sqrt(6.0 / n)},
			{"excess kurtosis", kurt, 0, math.Sqrt(24.0 / n)},
		} {
			if math.Abs(m.got-m.want) > 4*m.se {
				t.Errorf("seed %d: %s = %.5f, want %v within 4 SE (%.5f)", seed, m.name, m.got, m.want, 4*m.se)
			}
		}

		for _, k := range []float64{2, 3, 4} {
			beyond := 0
			for _, x := range xs {
				if math.Abs(x) > k {
					beyond++
				}
			}
			lo, hi := binomialBounds(n, math.Erfc(k/math.Sqrt2), 0.001)
			if beyond < lo || beyond > hi {
				t.Errorf("seed %d: %d draws beyond %vσ, want within [%d, %d]", seed, beyond, k, lo, hi)
			}
			t.Logf("seed %d: %d draws beyond %vσ, bounds [%d, %d]", seed, beyond, k, lo, hi)
		}

		slices.Sort(xs)
		var d float64
		for i, x := range xs {
			f := NormCDF(x)
			d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
		}
		if d >= ksCrit {
			t.Errorf("seed %d: Kolmogorov–Smirnov D = %.6f, 1%% critical value %.6f", seed, d, ksCrit)
		}
		t.Logf("seed %d: mean %.5f variance %.5f skewness %.5f excess kurtosis %.5f KS D %.6f", seed, mean, variance, skew, kurt, d)
	}
}

// binomialBounds returns the central 1−alpha interval [lo, hi] of a
// Binomial(n, p) count: P(X < lo) ≤ alpha/2 and P(X > hi) ≤ alpha/2, by
// summing the exact probability mass over ±12 standard deviations of
// the mean (what lies beyond is below 10⁻³⁰).
func binomialBounds(n int, p, alpha float64) (lo, hi int) {
	nf := float64(n)
	lgN, _ := math.Lgamma(nf + 1)
	pmf := func(k int) float64 {
		kf := float64(k)
		a, _ := math.Lgamma(kf + 1)
		b, _ := math.Lgamma(nf - kf + 1)
		return math.Exp(lgN - a - b + kf*math.Log(p) + (nf-kf)*math.Log1p(-p))
	}
	mu, sd := nf*p, math.Sqrt(nf*p*(1-p))
	from, to := max(0, int(mu-12*sd)), min(n, int(mu+12*sd)+1)
	lo, hi = from, to
	for k, cdf := from, 0.0; k <= to; k++ {
		if cdf += pmf(k); cdf > alpha/2 {
			lo = k
			break
		}
	}
	for k, tail := to, 0.0; k >= from; k-- {
		if tail += pmf(k); tail > alpha/2 {
			hi = k
			break
		}
	}
	return lo, hi
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestNormPDFCDFKnown(t *testing.T) {
	if math.Abs(NormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("NormPDF(0) = %v", NormPDF(0))
	}
	if math.Abs(NormCDF(0)-0.5) > 1e-12 {
		t.Fatalf("NormCDF(0) = %v", NormCDF(0))
	}
	if math.Abs(NormCDF(1.96)-0.9750021) > 1e-5 {
		t.Fatalf("NormCDF(1.96) = %v", NormCDF(1.96))
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if Mean(xs) != 3 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("P50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("P0/P100 wrong")
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(nil) should panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("P25 = %v, want 2.5", got)
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
}
