package bo

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"autrascale/internal/dataflow"
	"autrascale/internal/stat"
)

// pointRef is the string-keyed map the point index replaced: entry
// numbers in first-insertion order, keyed by testKey.
type pointRef map[string]int

// testKey renders p as "k1,k2,...,kN", the string key of this package's
// map references and golden lines.
func testKey(p dataflow.ParallelismVector) string {
	parts := make([]string, len(p))
	for i, k := range p {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// insertBoth inserts p into idx and ref and fails unless both agree on
// the entry number and on whether p was new.
func insertBoth(t *testing.T, idx *pointIndex, ref pointRef, p dataflow.ParallelismVector) {
	t.Helper()
	e, added := idx.insert(p)
	want, dup := ref[testKey(p)]
	if !dup {
		want = len(ref)
		ref[testKey(p)] = want
	}
	if e != want || added == dup {
		t.Fatalf("insert %v = (%d, %v), reference (%d, %v)", p, e, added, want, !dup)
	}
}

// checkFinds fails unless find agrees with ref on every probe.
func checkFinds(t *testing.T, idx *pointIndex, ref pointRef, probes []dataflow.ParallelismVector) {
	t.Helper()
	for _, p := range probes {
		e, ok := idx.find(p)
		want, wok := ref[testKey(p)]
		if ok != wok || (ok && e != want) {
			t.Fatalf("find %v = (%d, %v), reference (%d, %v)", p, e, ok, want, wok)
		}
		if ok && !idx.keys[e].Equal(p) {
			t.Fatalf("entry %d holds %v, probed %v", e, idx.keys[e], p)
		}
	}
}

func randomVector(rng *stat.RNG, dim, maxK int) dataflow.ParallelismVector {
	p := make(dataflow.ParallelismVector, dim)
	for d := range p {
		p[d] = 1 + rng.Intn(maxK)
	}
	return p
}

// The point index numbers points exactly as a map keyed by
// ParallelismVector.Key does, for dims 1–12, with frequent duplicates
// (small coordinate ranges) and after every growth.
func TestPointIndexMatchesMapReference(t *testing.T) {
	rng := stat.NewRNG(9)
	for dim := 1; dim <= 12; dim++ {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			var idx pointIndex
			ref := pointRef{}
			var inserted, probes []dataflow.ParallelismVector
			for i := 0; i < 600; i++ {
				p := randomVector(rng, dim, 4)
				insertBoth(t, &idx, ref, p)
				inserted = append(inserted, p)
				// A fresh copy, and points never inserted, probe by value.
				probes = append(probes, p.Clone(), randomVector(rng, dim, 5))
			}
			checkFinds(t, &idx, ref, inserted)
			checkFinds(t, &idx, ref, probes)
			if len(idx.keys) != len(ref) {
				t.Fatalf("%d entries, reference %d", len(idx.keys), len(ref))
			}
		})
	}
}

// Growth re-places every entry: after each of several doublings every
// point inserted so far is still found under its number.
func TestPointIndexGrowth(t *testing.T) {
	rng := stat.NewRNG(10)
	var idx pointIndex
	ref := pointRef{}
	var inserted []dataflow.ParallelismVector
	resizes, slots := 0, 0
	for len(ref) < 5000 {
		p := randomVector(rng, 3, 40)
		insertBoth(t, &idx, ref, p)
		inserted = append(inserted, p)
		if len(idx.slots) != slots {
			resizes++
			slots = len(idx.slots)
			checkFinds(t, &idx, ref, inserted)
		}
		if 2*len(idx.keys) > len(idx.slots) {
			t.Fatalf("%d entries in %d slots: load above one half", len(idx.keys), len(idx.slots))
		}
	}
	if resizes < 8 {
		t.Fatalf("only %d resizes to %d slots", resizes, slots)
	}
	checkFinds(t, &idx, ref, inserted)
}

// Equal, not the hash, decides identity: with every point hashed alike,
// or alike per first coordinate, the numbering still matches the
// reference.
func TestPointIndexForcedCollisions(t *testing.T) {
	for name, hash := range map[string]func(dataflow.ParallelismVector) uint64{
		"constant":         func(dataflow.ParallelismVector) uint64 { return 7 },
		"first coordinate": func(p dataflow.ParallelismVector) uint64 { return uint64(p[0]) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := stat.NewRNG(11)
			idx := pointIndex{hash: hash}
			ref := pointRef{}
			var probes []dataflow.ParallelismVector
			for i := 0; i < 300; i++ {
				p := randomVector(rng, 4, 3)
				insertBoth(t, &idx, ref, p)
				probes = append(probes, p, randomVector(rng, 4, 4))
			}
			checkFinds(t, &idx, ref, probes)
		})
	}
}

// reset empties the index and numbering restarts at 0.
func TestPointIndexReset(t *testing.T) {
	var idx pointIndex
	a, b := dataflow.ParallelismVector{1, 2}, dataflow.ParallelismVector{2, 1}
	idx.insert(a)
	idx.insert(b)
	idx.reset()
	if _, ok := idx.find(a); ok {
		t.Fatal("reset index still finds a point")
	}
	if e, added := idx.insert(b); e != 0 || !added {
		t.Fatalf("insert after reset = (%d, %v), want (0, true)", e, added)
	}
}

// A warm Suggest allocates per call, not per candidate: a 10-operator
// space scores several times the neighbours, pool points and climb
// steps of a 2-operator one, yet allocates within a small constant of
// it, below and above trustAfter.
func TestSuggestAllocationsIndependentOfDim(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race: sync.Pool drops items at random")
	}
	const slack = 2
	measure := func(dim, observations int) float64 {
		base := make(dataflow.ParallelismVector, dim)
		for i := range base {
			base[i] = 1 + i%4
		}
		s := mustSpace(t, base, 40)
		rng := stat.NewRNG(uint64(3 + dim))
		const runs = 20
		// Two unmeasured optimizers warm the pooled scratch to this size
		// (AllocsPerRun spends the first, the loop below the second).
		opts := make([]*Optimizer, runs+2)
		for i := range opts {
			o, err := NewOptimizer(OptimizerConfig{Space: s, Seed: uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < observations; j++ {
				if err := o.Add(Observation{Par: s.RandomPoint(rng), Score: rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			opts[i] = o
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if _, err := opts[runs+1].Suggest(); err != nil {
			t.Fatal(err)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := opts[next].Suggest(); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	for _, observations := range []int{8, trustAfter + 3} {
		a2, a10 := measure(2, observations), measure(10, observations)
		t.Logf("%d observations: %v allocs/op on 2 operators, %v on 10", observations, a2, a10)
		if a10 > a2+slack {
			t.Errorf("%d observations: Suggest allocates %v/op on 10 operators, %v on 2 (slack %d)", observations, a10, a2, slack)
		}
	}
}
