package bo

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autrascale/internal/dataflow"
	"autrascale/internal/stat"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suggest_sequence.txt")

// TestSuggestSequenceGolden replays seeded optimizer sessions — dims 2 to
// 10; EI, posterior-mean and exploit (transfer-style, warm-started with
// estimated samples) modes; 20 seeds each — and holds every suggestion
// bit for bit: the configuration, the reason, and the Float64bits of its
// posterior mean, std and acquisition value. Each session crosses
// trustAfter, so both the global and the trust-region pool are covered.
// A pure performance change to Suggest, its candidate pool or the GP fit
// must leave this file untouched.
func TestSuggestSequenceGolden(t *testing.T) {
	var b strings.Builder
	for _, dim := range []int{2, 4, 6, 8, 10} {
		for _, mode := range []string{"ei", "mean", "exploit"} {
			for seed := uint64(1); seed <= 20; seed++ {
				writeSuggestSequence(t, &b, dim, mode, seed)
			}
		}
	}
	path := filepath.Join("testdata", "suggest_sequence.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(b.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// writeSuggestSequence runs one seeded session: 5 random real samples
// (exploit mode adds 8 estimated ones around a shifted optimum, the way
// Algorithm 2 warm-starts), then 10 suggest-and-observe steps, appending
// one line per suggestion to b.
func writeSuggestSequence(t *testing.T, b *strings.Builder, dim int, mode string, seed uint64) {
	t.Helper()
	rng := stat.NewRNG(seed*131 + uint64(dim))
	base := make(dataflow.ParallelismVector, dim)
	for i := range base {
		base[i] = 1 + rng.Intn(6)
	}
	pmax := 24 + rng.Intn(24)
	s := mustSpace(t, base, pmax)
	opt := make([]float64, dim)
	for i := range opt {
		opt[i] = float64(base[i] + rng.Intn(pmax-base[i]+1)/2)
	}
	score := func(p dataflow.ParallelismVector, shift float64) float64 {
		v := 1.0
		for i, k := range p {
			d := (float64(k) - opt[i] - shift) / float64(pmax)
			v -= d*d + 0.05*float64(k)/float64(pmax*dim)
		}
		return v
	}
	o, err := NewOptimizer(OptimizerConfig{Space: s, Seed: seed, Exploit: mode == "exploit"})
	if err != nil {
		t.Fatal(err)
	}
	if mode == "exploit" {
		for i := 0; i < 8; i++ {
			p := s.RandomPoint(rng)
			if err := o.Add(Observation{Par: p, Score: score(p, 2), Estimated: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		p := s.RandomPoint(rng)
		if err := o.Add(Observation{Par: p, Score: score(p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 10; step++ {
		var p dataflow.ParallelismVector
		switch mode {
		case "ei":
			p, err = o.SuggestWith(false)
		case "mean":
			p, err = o.SuggestWith(true)
		default:
			p, err = o.Suggest()
		}
		fmt.Fprintf(b, "d%d %s s%d #%d ", dim, mode, seed, step)
		if errors.Is(err, ErrSpaceExhausted) {
			b.WriteString("exhausted\n")
			return
		}
		if err != nil {
			t.Fatalf("d%d %s s%d #%d: %v", dim, mode, seed, step, err)
		}
		st, ok := o.LastSuggestion()
		if !ok {
			t.Fatalf("d%d %s s%d #%d: no LastSuggestion after %v", dim, mode, seed, step, p)
		}
		fmt.Fprintf(b, "%s %s %016x %016x %016x\n", testKey(p), st.Reason,
			math.Float64bits(st.Mean), math.Float64bits(st.Std), math.Float64bits(st.AcqValue))
		if err := o.Add(Observation{Par: p, Score: score(p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
}
