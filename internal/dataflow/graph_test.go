package dataflow

import (
	"strings"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

func validProfile() Profile {
	return Profile{BaseRatePerInstance: 1000, SyncCost: 0.05, CPUPerInstance: 1, MemPerInstanceMB: 512}
}

func linearGraph(t *testing.T, names ...string) *Graph {
	t.Helper()
	g := NewGraph("test")
	for i, n := range names {
		kind := KindTransform
		if i == 0 {
			kind = KindSource
		} else if i == len(names)-1 {
			kind = KindSink
		}
		if err := g.AddOperator(Operator{Name: n, Kind: kind, Selectivity: 1, Profile: validProfile()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(names); i++ {
		if err := g.Connect(names[i], names[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBuildAndValidate(t *testing.T) {
	g := linearGraph(t, "src", "map", "sink")
	if g.NumOperators() != 3 {
		t.Fatalf("NumOperators = %d", g.NumOperators())
	}
	if got := g.Operator(1).Name; got != "map" {
		t.Fatalf("Operator(1) = %q", got)
	}
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v", s)
	}
	if succ := g.Successors(0); len(succ) != 1 || succ[0] != 1 {
		t.Fatalf("Successors(0) = %v", succ)
	}
	if succ := g.Successors(1); len(succ) != 1 || succ[0] != 2 {
		t.Fatalf("Successors(1) = %v", succ)
	}
	if !strings.Contains(g.String(), "src") {
		t.Fatal("String should include operator names")
	}
}

func TestDuplicateOperatorRejected(t *testing.T) {
	g := NewGraph("dup")
	op := Operator{Name: "a", Selectivity: 1, Profile: validProfile()}
	if err := g.AddOperator(op); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOperator(op); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestAddOperatorValidation(t *testing.T) {
	g := NewGraph("v")
	if err := g.AddOperator(Operator{Name: "", Profile: validProfile()}); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := g.AddOperator(Operator{Name: "bad", Selectivity: -1, Profile: validProfile()}); err == nil {
		t.Fatal("expected error for negative selectivity")
	}
	bad := validProfile()
	bad.BaseRatePerInstance = 0
	if err := g.AddOperator(Operator{Name: "bad2", Selectivity: 1, Profile: bad}); err == nil {
		t.Fatal("expected error for zero base rate")
	}
}

func TestConnectValidation(t *testing.T) {
	g := NewGraph("c")
	_ = g.AddOperator(Operator{Name: "a", Selectivity: 1, Profile: validProfile()})
	_ = g.AddOperator(Operator{Name: "b", Selectivity: 1, Profile: validProfile()})
	if err := g.Connect("a", "zzz"); err == nil {
		t.Fatal("expected unknown-target error")
	}
	if err := g.Connect("zzz", "a"); err == nil {
		t.Fatal("expected unknown-source error")
	}
	if err := g.Connect("a", "a"); err == nil {
		t.Fatal("expected self-edge error")
	}
	if err := g.Connect("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("a", "b"); err == nil {
		t.Fatal("expected duplicate-edge error")
	}
}

func TestCycleDetected(t *testing.T) {
	g := NewGraph("cycle")
	for _, n := range []string{"a", "b", "c"} {
		_ = g.AddOperator(Operator{Name: n, Selectivity: 1, Profile: validProfile()})
	}
	_ = g.Connect("a", "b")
	_ = g.Connect("b", "c")
	_ = g.Connect("c", "a")
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if err := NewGraph("empty").Validate(); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestTopoOrderValid(t *testing.T) {
	// Diamond: a -> b, a -> c, b -> d, c -> d.
	g := NewGraph("diamond")
	for _, n := range []string{"a", "b", "c", "d"} {
		_ = g.AddOperator(Operator{Name: n, Selectivity: 1, Profile: validProfile()})
	}
	_ = g.Connect("a", "b")
	_ = g.Connect("a", "c")
	_ = g.Connect("b", "d")
	_ = g.Connect("c", "d")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := g.TopoOrder()
	pos := map[int]int{}
	for i, n := range topo {
		pos[n] = i
	}
	for from := 0; from < g.NumOperators(); from++ {
		for _, to := range g.Successors(from) {
			if pos[from] >= pos[to] {
				t.Fatalf("topo order violates edge %d->%d: %v", from, to, topo)
			}
		}
	}
}

func TestTopoOrderPanicsWithoutValidate(t *testing.T) {
	g := NewGraph("x")
	_ = g.AddOperator(Operator{Name: "a", Selectivity: 1, Profile: validProfile()})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.TopoOrder()
}

// Property: random linear chains always validate with a correct topo order.
func TestRandomChainsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		n := 2 + r.Intn(8)
		g := NewGraph("chain")
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			if g.AddOperator(Operator{Name: names[i], Selectivity: 1, Profile: validProfile()}) != nil {
				return false
			}
		}
		for i := 0; i+1 < n; i++ {
			if g.Connect(names[i], names[i+1]) != nil {
				return false
			}
		}
		if g.Validate() != nil {
			return false
		}
		topo := g.TopoOrder()
		for i, v := range topo {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelismVector(t *testing.T) {
	p := Uniform(3, 2)
	if p.Total() != 6 {
		t.Fatalf("Total = %d", p.Total())
	}
	q := p.Clone()
	q[0] = 5
	if p[0] != 2 {
		t.Fatal("Clone must be independent")
	}
	if p.Equal(q) {
		t.Fatal("Equal should be false")
	}
	if !p.Equal(Uniform(3, 2)) {
		t.Fatal("Equal should be true")
	}
	if p.Equal(Uniform(2, 2)) {
		t.Fatal("different lengths are unequal")
	}
	if q.Max() != 5 {
		t.Fatalf("Max = %d", q.Max())
	}
	if p.Key() != "2,2,2" {
		t.Fatalf("Key = %q", p.Key())
	}
	if p.String() != "(2, 2, 2)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestParallelismValidateClamp(t *testing.T) {
	if err := (ParallelismVector{}).Validate(10); err == nil {
		t.Fatal("empty vector should fail")
	}
	if err := (ParallelismVector{0, 1}).Validate(10); err == nil {
		t.Fatal("parallelism < 1 should fail")
	}
	if err := (ParallelismVector{1, 11}).Validate(10); err == nil {
		t.Fatal("parallelism > max should fail")
	}
	if err := (ParallelismVector{1, 10}).Validate(10); err != nil {
		t.Fatal(err)
	}
	c := ParallelismVector{-3, 5, 99}.Clamp(10)
	if c[0] != 1 || c[1] != 5 || c[2] != 10 {
		t.Fatalf("Clamp = %v", c)
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		n := 1 + r.Intn(6)
		p := make(ParallelismVector, n)
		for i := range p {
			p[i] = 1 + r.Intn(40)
		}
		return FromFloats(p.Floats()).Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromFloatsClampsToOne(t *testing.T) {
	p := FromFloats([]float64{-2, 0.2, 3.6})
	want := ParallelismVector{1, 1, 4}
	if !p.Equal(want) {
		t.Fatalf("FromFloats = %v, want %v", p, want)
	}
}

func TestOperatorKindString(t *testing.T) {
	for _, k := range []OperatorKind{KindSource, KindTransform, KindWindow, KindSink, OperatorKind(42)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}
