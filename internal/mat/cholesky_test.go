package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt2) > 1e-12 || l.At(0, 1) != 0 {
		t.Fatalf("L = %v", l)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// Property: L·Lᵀ reconstructs A for random SPD matrices.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		return c.Reconstruct().MaxAbsDiff(a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveVec produces x with A·x ≈ b.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := c.SolveVec(b)
		r := Sub(a.MulVec(x), b)
		return Norm2(r) < 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// det([[4,2],[2,3]]) = 8.
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.LogDet()-math.Log(8)) > 1e-12 {
		t.Fatalf("LogDet = %v, want %v", c.LogDet(), math.Log(8))
	}
}

func TestCholeskySolveLowerVec(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 3})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 4}
	y := c.SolveLowerVec(b)
	// Check L·y = b.
	l := c.L()
	got := l.MulVec(y)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-12 {
			t.Fatalf("L·y = %v, want %v", got, b)
		}
	}
}

func TestCholeskyJittered(t *testing.T) {
	// Singular PSD matrix: ones(2,2). Plain Cholesky fails; jittered works.
	a := NewMatrixFrom(2, 2, []float64{1, 1, 1, 1})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected plain Cholesky to fail on a singular matrix")
	}
	c, jitter, err := NewCholeskyJittered(a, 1e-10, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Fatalf("jitter = %v, want > 0", jitter)
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestCholeskyJitteredNoJitterNeeded(t *testing.T) {
	a := Identity(3)
	c, jitter, err := NewCholeskyJittered(a, 1e-10, 1e-2)
	if err != nil || jitter != 0 || c == nil {
		t.Fatalf("got c=%v jitter=%v err=%v", c, jitter, err)
	}
}

func TestCholeskyJitteredGivesUp(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{-5, 0, 0, -5})
	if _, _, err := NewCholeskyJittered(a, 1e-10, 1e-9); err == nil {
		t.Fatal("expected failure for a strongly negative-definite matrix")
	}
}

func TestSolveVecPanicsOnBadLength(t *testing.T) {
	c, err := NewCholesky(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SolveVec([]float64{1})
}

// Property: a factor grown one row at a time via Append matches the
// from-scratch factorization of the full matrix to 1e-9.
func TestCholeskyAppendMatchesFromScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		a := randomSPD(rng, n)
		full, err := NewCholesky(a)
		if err != nil {
			return false
		}
		inc, err := NewCholesky(NewMatrixFrom(1, 1, []float64{a.At(0, 0)}))
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			col := make([]float64, i)
			for j := 0; j < i; j++ {
				col[j] = a.At(i, j)
			}
			if err := inc.Append(col, a.At(i, i)); err != nil {
				return false
			}
		}
		return inc.L().MaxAbsDiff(full.L()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyAppendRejectsNonSPDExtension(t *testing.T) {
	c, err := NewCholesky(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	// Bordering the identity with a unit-norm-exceeding column makes the
	// Schur complement negative: diag - wᵀw = 1 - 8 < 0.
	if err := c.Append([]float64{2, 2}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	// The factor must be unchanged after a failed Append.
	if c.Size() != 2 || c.L().MaxAbsDiff(Identity(2)) != 0 {
		t.Fatalf("failed Append mutated the factor: n=%d", c.Size())
	}
	// A valid extension still works afterwards, and leaves no trace of
	// the failed row: it matches the bordered matrix factored from scratch.
	if err := c.Append([]float64{0.1, 0.1}, 1); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3", c.Size())
	}
	want, err := NewCholesky(NewMatrixFrom(3, 3, []float64{1, 0, 0.1, 0, 1, 0.1, 0.1, 0.1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if d := c.L().MaxAbsDiff(want.L()); d > 1e-15 {
		t.Fatalf("factor after a failed then a valid Append differs from scratch by %v", d)
	}
}

func TestCholeskyAppendPanicsOnBadLength(t *testing.T) {
	c, err := NewCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = c.Append([]float64{1}, 1)
}

// SolveVecInto / SolveLowerVecInto match their allocating counterparts and
// tolerate aliasing dst with b.
func TestCholeskySolveIntoMatchesSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		x := c.SolveVec(b)
		dst := make([]float64, n)
		c.SolveVecInto(dst, b)
		for i := range x {
			if x[i] != dst[i] {
				return false
			}
		}
		y := c.SolveLowerVec(b)
		aliased := CopyVec(b)
		c.SolveLowerVecInto(aliased, aliased)
		for i := range y {
			if y[i] != aliased[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyClone(t *testing.T) {
	c, err := NewCholesky(NewMatrixFrom(2, 2, []float64{4, 2, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	if err := cl.Append([]float64{0.5, 0.5}, 5); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 || cl.Size() != 3 {
		t.Fatalf("Clone not independent: %d, %d", c.Size(), cl.Size())
	}
}

func TestCholeskyFactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := new(Cholesky)
	// Refactoring the same Cholesky over matrices of varying size must
	// match a fresh factorization exactly — stale rows from a larger
	// previous factor must not leak into a smaller one.
	for _, n := range []int{6, 10, 3, 10, 1, 7} {
		a := randomSPD(rng, n)
		if err := c.Factor(a, 0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := c.L().MaxAbsDiff(fresh.L()); d != 0 {
			t.Fatalf("n=%d: reused factor differs from fresh by %g", n, d)
		}
	}
	// Same-size refactoring reuses the buffers: zero allocations.
	a := randomSPD(rng, 8)
	if err := c.Factor(a, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Factor(a, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("same-size Factor allocates %v times per run", allocs)
	}
}

func TestCholeskyFactorJitteredMatchesNewJittered(t *testing.T) {
	// A singular matrix (rank 1) forces the jitter ladder; the in-place
	// form must land on the same jitter and factor as the allocating form.
	a := NewMatrixFrom(3, 3, []float64{
		1, 1, 1,
		1, 1, 1,
		1, 1, 1,
	})
	c := new(Cholesky)
	j1, err := c.FactorJittered(a, 1e-10, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, j2, err := NewCholeskyJittered(a, 1e-10, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("jitters differ: %g vs %g", j1, j2)
	}
	if j1 == 0 {
		t.Fatal("singular matrix factored without jitter")
	}
	if d := c.L().MaxAbsDiff(fresh.L()); d != 0 {
		t.Fatalf("factors differ by %g", d)
	}
}
