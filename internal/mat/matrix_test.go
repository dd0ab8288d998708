package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestNewMatrixFromPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add, At = %v, want 8", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tt := m.T()
	if tt.Rows() != 3 || tt.Cols() != 2 {
		t.Fatalf("T dims = %dx%d", tt.Rows(), tt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randomMatrix(rng, r, c)
		return m.MaxAbsDiff(m.T().T()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestRawRowAliases(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	raw := m.RawRow(1)
	raw[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("RawRow must alias the matrix")
	}
}

func TestScaleAddDiag(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatalf("Scale: got %v", m.At(1, 1))
	}
	m.AddDiag(1)
	if m.At(0, 0) != 3 || m.At(1, 1) != 9 || m.At(0, 1) != 4 {
		t.Fatalf("AddDiag wrong: %v", m)
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 1, -1})
	got := m.MulVec([]float64{1, 2, 3})
	want := []float64{7, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	c := Mul(a, b)
	want := NewMatrixFrom(2, 2, []float64{19, 22, 43, 50})
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulTallMatchesMulVec(t *testing.T) {
	// A tall non-square product, compared against MulVec applied column
	// by column.
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 300, 40)
	b := randomMatrix(rng, 40, 13)
	c := Mul(a, b)
	for j := 0; j < b.Cols(); j++ {
		col := make([]float64, b.Rows())
		for i := range col {
			col[i] = b.At(i, j)
		}
		want := a.MulVec(col)
		for i := range want {
			if math.Abs(c.At(i, j)-want[i]) > 1e-9 {
				t.Fatalf("Mul mismatch at (%d,%d): %v vs %v", i, j, c.At(i, j), want[i])
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		m := randomMatrix(rng, n, n)
		return Mul(m, Identity(n)).MaxAbsDiff(m) < 1e-12 &&
			Mul(Identity(n), m).MaxAbsDiff(m) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if got := Sub(y, x); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatalf("Norm2 = %v", Norm2([]float64{3, 4}))
	}
	if SqDist(x, y) != 27 {
		t.Fatalf("SqDist = %v", SqDist(x, y))
	}
	c := CopyVec(x)
	c[0] = 99
	if x[0] != 1 {
		t.Fatal("CopyVec must copy")
	}
}

func TestStringFormats(t *testing.T) {
	s := NewMatrixFrom(1, 2, []float64{1, 2}).String()
	if s == "" {
		t.Fatal("String should produce output")
	}
}

// randomMatrix returns an r x c matrix with entries in [-1, 1).
func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return m
}

// randomSPD returns a random symmetric positive definite n x n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := Mul(b, b.T())
	return a.AddDiag(float64(n)) // ensure well-conditioned
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMulManyRowsWithZeroRow(t *testing.T) {
	// Many rows, one of them all zero.
	rng := rand.New(rand.NewSource(42))
	a := randomMatrix(rng, 512, 16)
	for j := 0; j < 16; j++ {
		a.Set(100, j, 0)
	}
	b := randomMatrix(rng, 16, 8)
	c := Mul(a, b)
	// Spot-check a few entries against a direct dot product.
	for _, i := range []int{0, 100, 511} {
		for _, j := range []int{0, 7} {
			var want float64
			for k := 0; k < 16; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-9 {
				t.Fatalf("Mul[%d,%d] = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestVectorOpPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":    func() { Dot([]float64{1}, []float64{1, 2}) },
		"Sub":    func() { Sub([]float64{1}, []float64{1, 2}) },
		"SqDist": func() { SqDist([]float64{1}, []float64{1, 2}) },
		"MulVec": func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		"RawRow": func() { NewMatrix(2, 2).RawRow(-1) },
		"MaxAbs": func() { NewMatrix(2, 2).MaxAbsDiff(NewMatrix(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestAddDiagNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	m.AddDiag(5)
	if m.At(0, 0) != 5 || m.At(1, 1) != 5 || m.At(0, 2) != 0 {
		t.Fatalf("AddDiag on non-square wrong: %v", m)
	}
}
