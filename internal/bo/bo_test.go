package bo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"autrascale/internal/dataflow"
	"autrascale/internal/stat"
)

func mustSpace(t *testing.T, base dataflow.ParallelismVector, pmax int) Space {
	t.Helper()
	s, err := NewSpace(base, pmax)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(dataflow.ParallelismVector{}, 10); err == nil {
		t.Fatal("empty base should error")
	}
	if _, err := NewSpace(dataflow.ParallelismVector{5, 2}, 4); err == nil {
		t.Fatal("PMax below base max should error")
	}
	if _, err := NewSpace(dataflow.ParallelismVector{5, 2}, 5); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceContainsClamp(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{2, 3}, 10)
	if !s.Contains(dataflow.ParallelismVector{2, 10}) {
		t.Fatal("boundary point should be contained")
	}
	if s.Contains(dataflow.ParallelismVector{1, 5}) {
		t.Fatal("below base should not be contained")
	}
	if s.Contains(dataflow.ParallelismVector{2, 11}) {
		t.Fatal("above PMax should not be contained")
	}
	if s.Contains(dataflow.ParallelismVector{2}) {
		t.Fatal("wrong dim should not be contained")
	}
	c := s.Clamp(dataflow.ParallelismVector{0, 99})
	if !c.Equal(dataflow.ParallelismVector{2, 10}) {
		t.Fatalf("Clamp = %v", c)
	}
}

func TestRandomPointInSpace(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{2, 3, 1}, 12)
	rng := stat.NewRNG(1)
	for i := 0; i < 500; i++ {
		if p := s.RandomPoint(rng); !s.Contains(p) {
			t.Fatalf("RandomPoint out of space: %v", p)
		}
	}
}

func TestNeighbors(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 5)
	n := s.Neighbors(dataflow.ParallelismVector{3, 3}, 1)
	if len(n) != 4 {
		t.Fatalf("interior point should have 4 neighbors, got %d", len(n))
	}
	// At the lower corner only upward moves remain.
	n = s.Neighbors(dataflow.ParallelismVector{1, 1}, 1)
	if len(n) != 2 {
		t.Fatalf("corner should have 2 neighbors, got %v", n)
	}
	for _, p := range n {
		if !s.Contains(p) {
			t.Fatalf("neighbor out of space: %v", p)
		}
	}
	// step <= 0 defaults to 1.
	if len(s.Neighbors(dataflow.ParallelismVector{3, 3}, 0)) != 4 {
		t.Fatal("step 0 should behave as step 1")
	}
}

func TestBootstrapSetDesign(t *testing.T) {
	// Base (2, 1, 3), PMax 9, M = 3: the base anchor, uniform levels at
	// kmax=3, 6, 9, plus 3 one-hot samples.
	s := mustSpace(t, dataflow.ParallelismVector{2, 1, 3}, 9)
	set, err := s.BootstrapSet(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []dataflow.ParallelismVector{
		{2, 1, 3},                       // base anchor
		{3, 3, 3}, {6, 6, 6}, {9, 9, 9}, // uniform levels
		{9, 1, 3}, {2, 9, 3}, {2, 1, 9}, // one-hot
	}
	if len(set) != len(want) {
		t.Fatalf("set size = %d, want %d (%v)", len(set), len(want), set)
	}
	for i, w := range want {
		if !set[i].Equal(w) {
			t.Fatalf("sample %d = %v, want %v", i, set[i], w)
		}
	}
	// All inside the space, no duplicates.
	seen := map[string]bool{}
	for _, p := range set {
		if !s.Contains(p) {
			t.Fatalf("bootstrap sample out of space: %v", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate bootstrap sample %v", p)
		}
		seen[p.Key()] = true
	}
}

func TestBootstrapSetEdgeCases(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{4, 4}, 4) // PMax == kmax
	set, err := s.BootstrapSet(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || !set[0].Equal(dataflow.ParallelismVector{4, 4}) {
		t.Fatalf("degenerate space set = %v", set)
	}
	if _, err := s.BootstrapSet(0); err == nil {
		t.Fatal("M=0 should error")
	}
}

func TestScorer(t *testing.T) {
	base := dataflow.ParallelismVector{2, 4}
	sc, err := NewScorer(0.5, 100, base)
	if err != nil {
		t.Fatal(err)
	}
	// At the base configuration with latency met: F = 1.
	if f := sc.Score(80, base); math.Abs(f-1) > 1e-12 {
		t.Fatalf("perfect score = %v, want 1", f)
	}
	// Double the parallelism: resource term halves → F = 0.5 + 0.25.
	if f := sc.Score(80, dataflow.ParallelismVector{4, 8}); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("doubled config score = %v, want 0.75", f)
	}
	// Latency violation halves the latency term.
	if f := sc.Score(200, base); math.Abs(f-(0.5*0.5+0.5)) > 1e-12 {
		t.Fatalf("violating score = %v", f)
	}
}

func TestScorerValidation(t *testing.T) {
	base := dataflow.ParallelismVector{1}
	if _, err := NewScorer(-0.1, 100, base); err == nil {
		t.Fatal("alpha < 0 should error")
	}
	if _, err := NewScorer(1.1, 100, base); err == nil {
		t.Fatal("alpha > 1 should error")
	}
	if _, err := NewScorer(0.5, 0, base); err == nil {
		t.Fatal("target 0 should error")
	}
	if _, err := NewScorer(0.5, 100, dataflow.ParallelismVector{}); err == nil {
		t.Fatal("empty base should error")
	}
}

// Properties from §III-D: (a) lower latency never lowers the score;
// (b) parallelism closer to base never lowers the score; F in [0, 1].
func TestScorerMonotonicityProperty(t *testing.T) {
	base := dataflow.ParallelismVector{2, 3, 4}
	sc, err := NewScorer(0.6, 150, base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		l1 := 10 + r.Float64()*500
		l2 := l1 + r.Float64()*300
		p := dataflow.ParallelismVector{
			2 + r.Intn(10), 3 + r.Intn(10), 4 + r.Intn(10),
		}
		s1, s2 := sc.Score(l1, p), sc.Score(l2, p)
		if s1 < s2-1e-12 {
			return false // higher latency must not score higher
		}
		if s1 < 0 || s1 > 1 {
			return false
		}
		// Add parallelism to one operator: score must not increase.
		q := p.Clone()
		q[r.Intn(3)] += 1 + r.Intn(5)
		return sc.Score(l1, q) <= s1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThreshold(t *testing.T) {
	sc, _ := NewScorer(0.5, 100, dataflow.ParallelismVector{1})
	// Eq. 9 with w = 0.25: F >= 0.5 + 0.5/1.25 = 0.9.
	if th := sc.Threshold(0.25); math.Abs(th-0.9) > 1e-12 {
		t.Fatalf("Threshold(0.25) = %v, want 0.9", th)
	}
	if th := sc.Threshold(0); th != 1 {
		t.Fatalf("Threshold(0) = %v, want 1", th)
	}
	if th := sc.Threshold(-3); th != 1 {
		t.Fatalf("negative w should clamp to 0, got %v", th)
	}
	if !sc.LatencyMet(100) || sc.LatencyMet(100.1) {
		t.Fatal("LatencyMet boundary wrong")
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Zero std → zero EI (Eq. 5 case σ(x)=0).
	if ei := expectedImprovement(10, 0, 5, 0.01); ei != 0 {
		t.Fatalf("EI with σ=0 should be 0, got %v", ei)
	}
	// Mean far above best → EI ≈ mean − best − xi.
	ei := expectedImprovement(10, 0.1, 5, 0.01)
	if math.Abs(ei-4.99) > 0.01 {
		t.Fatalf("EI = %v, want ~4.99", ei)
	}
	// Mean far below best with tiny std → EI ≈ 0.
	if ei := expectedImprovement(0, 0.1, 5, 0.01); ei > 1e-6 {
		t.Fatalf("hopeless EI = %v", ei)
	}
}

// Property: EI >= 0 and increases with std for symmetric cases.
func TestEIProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		mean := r.Float64()*10 - 5
		best := r.Float64()*10 - 5
		s1 := r.Float64() * 2
		s2 := s1 + r.Float64()*2 + 1e-9
		e1 := expectedImprovement(mean, s1, best, 0.01)
		e2 := expectedImprovement(mean, s2, best, 0.01)
		return e1 >= 0 && e2 >= e1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEISweep measures an acquisition sweep over a candidate pool.
func BenchmarkEISweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s float64
		for m := 0.0; m < 1; m += 0.001 {
			s += expectedImprovement(m, 0.1, 0.8, 0.01)
		}
		if s < 0 {
			b.Fatal("impossible")
		}
	}
}

func TestOptimizerValidation(t *testing.T) {
	if _, err := NewOptimizer(OptimizerConfig{}); err == nil {
		t.Fatal("empty space should error")
	}
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 8)
	o, err := NewOptimizer(OptimizerConfig{Space: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Add(Observation{Par: dataflow.ParallelismVector{1}, Score: 1}); err == nil {
		t.Fatal("wrong-dim observation should error")
	}
	if err := o.Add(Observation{Par: dataflow.ParallelismVector{1, 1}, Score: math.NaN()}); err == nil {
		t.Fatal("NaN score should error")
	}
	if _, err := o.Suggest(); err == nil {
		t.Fatal("Suggest with no data should error")
	}
	if _, ok := o.Best(); ok {
		t.Fatal("Best with no data should be false")
	}
}

func TestOptimizerAddSemantics(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 8)
	o, _ := NewOptimizer(OptimizerConfig{Space: s})
	p := dataflow.ParallelismVector{2, 2}
	_ = o.Add(Observation{Par: p, Score: 0.5, Estimated: true})
	if o.NumReal() != 0 {
		t.Fatal("estimated sample should not count as real")
	}
	// Real replaces estimated.
	_ = o.Add(Observation{Par: p, Score: 0.7})
	if o.NumReal() != 1 || len(o.Observations()) != 1 {
		t.Fatalf("real should replace estimated: %v", o.Observations())
	}
	// Estimated must not replace real.
	_ = o.Add(Observation{Par: p, Score: 0.1, Estimated: true})
	best, _ := o.Best()
	if best.Score != 0.7 {
		t.Fatalf("estimated overwrote real: %v", best)
	}
}

// End-to-end: BO should find the maximum of a known concave function on
// the lattice within a modest number of iterations.
func TestOptimizerFindsOptimum(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 12)
	o, err := NewOptimizer(OptimizerConfig{Space: s, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Score peaks at (4, 9).
	score := func(p dataflow.ParallelismVector) float64 {
		dx := float64(p[0] - 4)
		dy := float64(p[1] - 9)
		return 1 - 0.01*(dx*dx+dy*dy)
	}
	// Seed with a coarse design.
	for _, p := range []dataflow.ParallelismVector{{1, 1}, {12, 12}, {1, 12}, {12, 1}, {6, 6}} {
		if err := o.Add(Observation{Par: p, Score: score(p)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		p, err := o.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if !s.Contains(p) {
			t.Fatalf("suggestion out of space: %v", p)
		}
		if err := o.Add(Observation{Par: p, Score: score(p)}); err != nil {
			t.Fatal(err)
		}
	}
	best, _ := o.Best()
	if best.Score < 0.97 {
		t.Fatalf("BO best = %v (score %v), want near (4,9)", best.Par, best.Score)
	}
}

func TestOptimizerPredict(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1}, 10)
	o, _ := NewOptimizer(OptimizerConfig{Space: s, Seed: 3})
	for k := 1; k <= 10; k += 3 {
		_ = o.Add(Observation{Par: dataflow.ParallelismVector{k}, Score: float64(k) / 10})
	}
	mean, std, err := o.Predict(dataflow.ParallelismVector{5})
	if err != nil {
		t.Fatal(err)
	}
	if std < 0 {
		t.Fatalf("negative std %v", std)
	}
	if mean < 0.2 || mean > 0.9 {
		t.Fatalf("Predict(5) mean = %v, want within data range", mean)
	}
}

func TestSuggestAcqModes(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 10)
	o, err := NewOptimizer(OptimizerConfig{Space: s, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	score := func(p dataflow.ParallelismVector) float64 {
		dx := float64(p[0] - 3)
		dy := float64(p[1] - 7)
		return 1 - 0.02*(dx*dx+dy*dy)
	}
	evaluated := map[string]bool{}
	for _, p := range []dataflow.ParallelismVector{{1, 1}, {10, 10}, {5, 5}, {2, 8}} {
		if err := o.Add(Observation{Par: p, Score: score(p)}); err != nil {
			t.Fatal(err)
		}
		evaluated[p.Key()] = true
	}
	for _, exploit := range []bool{false, true} {
		p, err := o.SuggestWith(exploit)
		if err != nil {
			t.Fatalf("exploit %v: %v", exploit, err)
		}
		if !s.Contains(p) || evaluated[p.Key()] {
			t.Fatalf("exploit %v suggested out-of-space or evaluated %v", exploit, p)
		}
		want := acqEI
		if exploit {
			want = acqMean
		}
		if st, ok := o.LastSuggestion(); !ok || st.Acquisition != want || !st.Par.Equal(p) {
			t.Fatalf("exploit %v: LastSuggestion = %+v (ok=%v)", exploit, st, ok)
		}
	}
}

// In both modes Suggest never returns an evaluated real point, right up
// to and across the point where the space runs out — where it returns
// ErrSpaceExhausted, and keeps returning it.
func TestSuggestExhaustsSpace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		base   dataflow.ParallelismVector
		pmax   int
		points int
	}{
		{"1-point", dataflow.ParallelismVector{4, 4}, 4, 1},
		{"4-point", dataflow.ParallelismVector{1, 1}, 2, 4},
	} {
		for _, exploit := range []bool{false, true} {
			s := mustSpace(t, tc.base, tc.pmax)
			o, err := NewOptimizer(OptimizerConfig{Space: s, Seed: 5, Exploit: exploit})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{tc.base.Key(): true}
			if err := o.Add(Observation{Par: tc.base, Score: 1}); err != nil {
				t.Fatal(err)
			}
			for len(seen) < tc.points {
				p, err := o.Suggest()
				if err != nil {
					t.Fatalf("%s exploit %v: %d of %d points tried: %v", tc.name, exploit, len(seen), tc.points, err)
				}
				if !s.Contains(p) || seen[p.Key()] {
					t.Fatalf("%s exploit %v: suggested %v (evaluated: %v)", tc.name, exploit, p, seen)
				}
				seen[p.Key()] = true
				if err := o.Add(Observation{Par: p, Score: 1 / float64(p.Total())}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if p, err := o.Suggest(); !errors.Is(err, ErrSpaceExhausted) {
					t.Fatalf("%s exploit %v: exhausted space suggested %v, err %v", tc.name, exploit, p, err)
				}
			}
		}
	}
}

func TestPickNearTie(t *testing.T) {
	// Candidate 1 leads, candidate 2 is within the 10% tie band but
	// cheaper (larger resource term): the cheaper one must win.
	acq := []float64{0.50, 1.00, 0.95, 0.20}
	res := []float64{9.0, 0.3, 0.8, 9.9}
	all := []bool{true, true, true, true}
	if got := pickNearTie(acq, res, all); got != 2 {
		t.Fatalf("pickNearTie = %d, want cheaper near-tie 2", got)
	}
	// Outside the band the plain argmax wins regardless of cost.
	acq2 := []float64{0.50, 1.00, 0.80, 0.20}
	if got := pickNearTie(acq2, res, all); got != 1 {
		t.Fatalf("pickNearTie = %d, want argmax 1", got)
	}
	// Equal resources break toward the higher acquisition value.
	if got := pickNearTie([]float64{0.99, 1.00}, []float64{1, 1}, []bool{true, true}); got != 1 {
		t.Fatalf("equal-cost tie = %d, want higher acq 1", got)
	}
	// Ineligible entries never win, even as the global max; with none
	// eligible the explicit no-candidate state is -1, not index 0.
	if got := pickNearTie(acq, res, []bool{false, false, true, false}); got != 2 {
		t.Fatalf("ineligible max leaked: got %d", got)
	}
	if got := pickNearTie(acq, res, []bool{false, false, false, false}); got != -1 {
		t.Fatalf("no eligible candidates = %d, want -1", got)
	}
	// All-zero acquisition values (EI collapsed everywhere) are a full
	// tie: the cheapest eligible candidate is still preferred.
	if got := pickNearTie([]float64{0, 0, 0}, []float64{1, 5, 3}, []bool{true, true, true}); got != 1 {
		t.Fatalf("zero-EI tie = %d, want cheapest 1", got)
	}
	// Negative values keep a sane band below the maximum rather than
	// selecting everything.
	if got := pickNearTie([]float64{-1.0, -0.5, -3.0}, []float64{9, 1, 9}, []bool{true, true, true}); got != 1 {
		t.Fatalf("negative-value band = %d, want 1", got)
	}
}

// Same seed + same observation sequence ⇒ identical suggestion, in EI and
// mean mode, below and above the trust-region threshold: the goldens and
// the `flightctl diff` gates stand on this.
func TestSuggestDeterministic(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{2, 1, 3}, 40)
	score := func(p dataflow.ParallelismVector) float64 {
		v := 0.0
		for i, k := range p {
			d := float64(k - 3*(i+2))
			v -= 0.01 * d * d
		}
		return 1 + v
	}
	for _, seed := range []uint64{1, 42, 999} {
		a, err := NewOptimizer(OptimizerConfig{Space: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewOptimizer(OptimizerConfig{Space: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := stat.NewRNG(seed)
		for i := 0; i < trustAfter+4; i++ {
			p := s.RandomPoint(rng)
			ob := Observation{Par: p, Score: score(p)}
			if err := a.Add(ob); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(ob); err != nil {
				t.Fatal(err)
			}
			if i < 4 {
				continue // too few points to be interesting
			}
			for _, exploit := range []bool{false, true} {
				pa, err1 := a.SuggestWith(exploit)
				pb, err2 := b.SuggestWith(exploit)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d obs %d exploit %v: %v / %v", seed, i, exploit, err1, err2)
				}
				if !pa.Equal(pb) {
					t.Fatalf("seed %d obs %d exploit %v: %v != %v", seed, i, exploit, pa, pb)
				}
			}
		}
	}
}

func TestOptimizerAddReplaceByIndex(t *testing.T) {
	s := mustSpace(t, dataflow.ParallelismVector{1, 1}, 30)
	o, _ := NewOptimizer(OptimizerConfig{Space: s})
	for k := 1; k <= 20; k++ {
		if err := o.Add(Observation{Par: dataflow.ParallelismVector{k, k}, Score: float64(k) / 100}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-observing an existing configuration must replace it in place —
	// no duplicate entry, newest score kept — regardless of where it sits.
	for _, k := range []int{1, 7, 20} {
		if err := o.Add(Observation{Par: dataflow.ParallelismVector{k, k}, Score: 5 + float64(k)}); err != nil {
			t.Fatal(err)
		}
		obs := o.Observations()
		if len(obs) != 20 {
			t.Fatalf("replace grew the set to %d entries", len(obs))
		}
		if got := obs[k-1].Score; got != 5+float64(k) {
			t.Fatalf("obs[%d].Score = %v, want %v", k-1, got, 5+float64(k))
		}
	}
	best, _ := o.Best()
	if !best.Par.Equal(dataflow.ParallelismVector{20, 20}) {
		t.Fatalf("best after replacements = %v", best)
	}
}
