// Package queueing implements the M/M/c (Erlang C) formulas the DRS
// baseline builds on (paper §VI "Queuing theory model"): the expected
// sojourn time of a station with c parallel exponential servers, and its
// utilisation.
//
// DRS models each operator as an M/M/c station and predicts the total
// expected sojourn time of a record through the network; its controller
// greedily raises parallelism until the prediction meets the target. The
// model's weakness — the reason AuTraScale beats it — is that service
// rates are assumed constant, while in reality interference makes them
// fall as more instances are packed in.
package queueing

import (
	"errors"
	"math"
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

// MMcSojourn returns the expected time in system (wait + service) for
// M/M/c with arrival rate lambda and per-server service rate mu, in the
// same time unit as 1/mu.
func MMcSojourn(lambda, mu float64, c int) (float64, error) {
	w, err := mmcWait(lambda, mu, c)
	if err != nil {
		return 0, err
	}
	return w + 1/mu, nil
}

// Rho returns the utilization lambda/(c·mu), or +Inf for zero capacity.
func Rho(lambda, mu float64, c int) float64 {
	capTotal := float64(c) * mu
	if capTotal <= 0 {
		return math.Inf(1)
	}
	return lambda / capTotal
}
