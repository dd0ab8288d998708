package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

// M/M/1 is M/M/c with one server.
func TestMM1Known(t *testing.T) {
	// lambda=1, mu=2: W = rho/(mu-lambda) = 0.5/1 = 0.5, T = 1.
	w, err := mmcWait(1, 2, 1)
	if err != nil || math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("mmcWait = %v, %v", w, err)
	}
	s, err := MMcSojourn(1, 2, 1)
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("MMcSojourn = %v, %v", s, err)
	}
}

func TestMM1Errors(t *testing.T) {
	if _, err := mmcWait(2, 2, 1); err != errUnstable {
		t.Fatalf("rho=1 err = %v", err)
	}
	if _, err := mmcWait(-1, 2, 1); err == nil {
		t.Fatal("negative lambda should error")
	}
	if _, err := mmcWait(1, 0, 1); err == nil {
		t.Fatal("zero mu should error")
	}
	if _, err := MMcSojourn(3, 2, 1); err != errUnstable {
		t.Fatal("unstable sojourn should error")
	}
}

func TestErlangCKnown(t *testing.T) {
	for _, tc := range []struct {
		c       int
		a, want float64
	}{
		{2, 1, 1.0 / 3.0}, // classic value
		{1, 0.7, 0.7},     // c=1 reduces to rho
		// The M/M/3 case TestMMcWaitMatchesErlangC simulates:
		// (a³/3!)·(3/(3−a)) / (Σ_{k<3} aᵏ/k! + (a³/3!)·(3/(3−a))) = 15.625/22.25.
		{3, 2.5, 125.0 / 178.0},
	} {
		got, err := erlangC(tc.c, tc.a)
		if err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("erlangC(%d, %v) = %v, %v; want %v", tc.c, tc.a, got, err, tc.want)
		}
	}
}

func TestErlangCErrors(t *testing.T) {
	if _, err := erlangC(0, 1); err == nil {
		t.Fatal("c=0 should error")
	}
	if _, err := erlangC(2, 2); err != errUnstable {
		t.Fatal("a >= c should be unstable")
	}
	if _, err := erlangC(2, -1); err == nil {
		t.Fatal("negative load should error")
	}
}

// Property: erlangC is in [0, 1] and increases with offered load.
func TestErlangCProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		c := 1 + r.Intn(20)
		a1 := r.Float64() * float64(c) * 0.9
		a2 := a1 + r.Float64()*(float64(c)*0.99-a1)
		p1, err1 := erlangC(c, a1)
		p2, err2 := erlangC(c, a2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= 0 && p1 <= 1 && p2 >= p1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMMcMatchesMM1(t *testing.T) {
	// The M/M/1 closed form: W = rho/(mu − lambda) = 0.8/0.2.
	wc, err := mmcWait(0.8, 1, 1)
	if err != nil || math.Abs(wc-4) > 1e-12 {
		t.Fatalf("M/M/c(1) wait = %v, %v; want the M/M/1 value 4", wc, err)
	}
}

func TestMMcPoolingReducesWait(t *testing.T) {
	// Same utilization, more servers → shorter wait (pooling effect).
	w2, err := mmcWait(1.6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w4, err := mmcWait(3.2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w4 >= w2 {
		t.Fatalf("pooling should reduce wait: c=2 %v, c=4 %v", w2, w4)
	}
}

func TestMMcSojournIncludesService(t *testing.T) {
	w, _ := mmcWait(1, 2, 2)
	s, err := MMcSojourn(1, 2, 2)
	if err != nil || math.Abs(s-(w+0.5)) > 1e-12 {
		t.Fatalf("sojourn = %v, want wait+service", s)
	}
	if _, err := MMcSojourn(10, 1, 2); err != errUnstable {
		t.Fatal("unstable M/M/c should error")
	}
	if _, err := mmcWait(1, 0, 2); err == nil {
		t.Fatal("zero mu should error")
	}
}

func TestStableUtilizationAndRho(t *testing.T) {
	if Rho(1, 1, 2) != 0.5 {
		t.Fatalf("Rho = %v", Rho(1, 1, 2))
	}
	if Rho(2, 1, 2) < 1 {
		t.Fatal("rho = 1 is not a stable utilization")
	}
	if !math.IsInf(Rho(1, 0, 2), 1) {
		t.Fatal("zero capacity should be +Inf")
	}
}
