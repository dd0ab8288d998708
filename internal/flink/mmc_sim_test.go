package flink

import (
	"container/heap"
	"math"
	"testing"

	"autrascale/internal/stat"
)

// The M/M/c closed forms (mmc_test.go) are checked here against simulate, an
// independent record-level discrete-event simulation of a tandem of
// M/M/c stations that tracks every record through every FIFO queue.

// simStation is one stage: servers parallel exponential servers with
// mean service time meanServiceSec.
type simStation struct {
	servers        int
	meanServiceSec float64
}

// simResult is what simulate measured over the records after warm-up.
type simResult struct {
	meanSojournSec float64   // network entry to exit
	meanWaitSec    []float64 // queue wait, per station
}

type simEvent struct {
	at      float64
	arrival bool
	record  int
	station int
}

type simEvents []simEvent

func (h simEvents) Len() int           { return len(h) }
func (h simEvents) Less(i, j int) bool { return h[i].at < h[j].at }
func (h simEvents) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *simEvents) Push(x any)        { *h = append(*h, x.(simEvent)) }
func (h *simEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// exponential draws an exponential sample with the given rate.
func exponential(rng *stat.RNG, rate float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}

// simulate pushes records Poisson arrivals at rate lambda through the
// stable tandem network, after a warm-up of records/10 unmeasured ones.
func simulate(stations []simStation, lambda float64, records int, seed uint64) simResult {
	warmup := records / 10
	total := records + warmup
	rng := stat.NewRNG(seed ^ 0x5e17_ab4d_9c21_77f1)
	busy := make([]int, len(stations))
	queues := make([][]int, len(stations)) // waiting records, FIFO
	entered := make([]float64, total)      // arrival into the network
	stationIn := make([]float64, total)    // arrival at the current station
	res := simResult{meanWaitSec: make([]float64, len(stations))}

	h := &simEvents{}
	t := 0.0
	for r := 0; r < total; r++ {
		t += exponential(rng, lambda)
		heap.Push(h, simEvent{at: t, arrival: true, record: r})
	}
	start := func(st, rec int, now float64) {
		busy[st]++
		if rec >= warmup {
			res.meanWaitSec[st] += now - stationIn[rec]
		}
		heap.Push(h, simEvent{at: now + exponential(rng, 1/stations[st].meanServiceSec), record: rec, station: st})
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(simEvent)
		now := e.at
		if e.arrival {
			if e.station == 0 {
				entered[e.record] = now
			}
			stationIn[e.record] = now
			if busy[e.station] < stations[e.station].servers {
				start(e.station, e.record, now)
			} else {
				queues[e.station] = append(queues[e.station], e.record)
			}
			continue
		}
		busy[e.station]--
		if q := queues[e.station]; len(q) > 0 {
			queues[e.station] = q[1:]
			start(e.station, q[0], now)
		}
		if e.station+1 < len(stations) {
			heap.Push(h, simEvent{at: now, arrival: true, record: e.record, station: e.station + 1})
		} else if e.record >= warmup {
			res.meanSojournSec += now - entered[e.record]
		}
	}
	// Every measured record crossed every station once.
	res.meanSojournSec /= float64(records)
	for i := range res.meanWaitSec {
		res.meanWaitSec[i] /= float64(records)
	}
	return res
}

// Erlang C against the simulation: M/M/3 with lambda=2.5, mu=1.
func TestMMcWaitMatchesErlangC(t *testing.T) {
	res := simulate([]simStation{{servers: 3, meanServiceSec: 1}}, 2.5, 40000, 3)
	want, err := mmcWait(2.5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.meanWaitSec[0]-want) / want; rel > 0.1 {
		t.Fatalf("M/M/3 wait = %v, Erlang C %v (rel err %.2f)", res.meanWaitSec[0], want, rel)
	}
}

// The Jackson-network latency model under DRS — a record's expected
// sojourn through a tandem is the sum of its stations' M/M/c sojourns
// (Jackson's theorem) — against the simulation.
func TestTandemMatchesSumOfMMcSojourn(t *testing.T) {
	stations := []simStation{
		{servers: 1, meanServiceSec: 0.08},
		{servers: 2, meanServiceSec: 0.25},
		{servers: 1, meanServiceSec: 0.05},
	}
	res := simulate(stations, 6, 40000, 4)
	var want float64
	for _, s := range stations {
		w, err := mmcSojourn(6, 1/s.meanServiceSec, s.servers)
		if err != nil {
			t.Fatal(err)
		}
		want += w
	}
	if rel := math.Abs(res.meanSojournSec-want) / want; rel > 0.1 {
		t.Fatalf("tandem sojourn = %v, Σ M/M/c sojourn %v (rel err %.2f)", res.meanSojournSec, want, rel)
	}
}
