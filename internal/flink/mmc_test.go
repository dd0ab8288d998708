package flink

// The M/M/c (Erlang C) closed forms DRS's queueing model rests on (paper
// §VI "Queuing theory model"): the expected wait and sojourn of a station
// with c parallel exponential servers. Production DRS needs only the
// utilization ρ (policy/drs); the forms are test references, checked
// here and against a record-level simulation in mmc_sim_test.go.

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

// errUnstable is returned when arrival rate >= service capacity, i.e. the
// queue grows without bound.
var errUnstable = errors.New("queueing: utilization >= 1 (unstable system)")

// erlangC returns the probability an arriving customer must wait in an
// M/M/c queue with offered load a = lambda/mu and c servers.
func erlangC(c int, a float64) (float64, error) {
	if c <= 0 || a < 0 {
		return 0, errors.New("queueing: need c > 0 and a >= 0")
	}
	if a >= float64(c) {
		return 0, errUnstable
	}
	// Compute via the numerically stable iterative Erlang B recursion:
	// B(0) = 1; B(k) = a·B(k−1) / (k + a·B(k−1)); then
	// C = B(c) / (1 − ρ·(1 − B(c))) with ρ = a/c.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b)), nil
}

// mmcWait returns the expected waiting time in queue for M/M/c with
// arrival rate lambda and per-server service rate mu.
func mmcWait(lambda, mu float64, c int) (float64, error) {
	if mu <= 0 {
		return 0, errors.New("queueing: mu must be > 0")
	}
	a := lambda / mu
	pc, err := erlangC(c, a)
	if err != nil {
		return 0, err
	}
	return pc / (float64(c)*mu - lambda), nil
}

// mmcSojourn returns the expected time in system (wait + service) for
// M/M/c with arrival rate lambda and per-server service rate mu, in the
// same time unit as 1/mu.
func mmcSojourn(lambda, mu float64, c int) (float64, error) {
	w, err := mmcWait(lambda, mu, c)
	if err != nil {
		return 0, err
	}
	return w + 1/mu, nil
}

// M/M/1 is M/M/c with one server.
func TestMM1Known(t *testing.T) {
	// lambda=1, mu=2: W = rho/(mu-lambda) = 0.5/1 = 0.5, T = 1.
	w, err := mmcWait(1, 2, 1)
	if err != nil || math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("mmcWait = %v, %v", w, err)
	}
	s, err := mmcSojourn(1, 2, 1)
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("mmcSojourn = %v, %v", s, err)
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
	if _, err := mmcSojourn(3, 2, 1); err != errUnstable {
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
	s, err := mmcSojourn(1, 2, 2)
	if err != nil || math.Abs(s-(w+0.5)) > 1e-12 {
		t.Fatalf("sojourn = %v, want wait+service", s)
	}
	if _, err := mmcSojourn(10, 1, 2); err != errUnstable {
		t.Fatal("unstable M/M/c should error")
	}
	if _, err := mmcWait(1, 0, 2); err == nil {
		t.Fatal("zero mu should error")
	}
}
