package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The calibration kernel. This box is a shared VM whose speed drifts by
// half over tens of minutes, for every kind of code at once: a run in a
// slow spell is slow from its first tick to its last, so no statistic
// inside the run removes it. The harness therefore times a small fixed
// kernel of its own in three short windows — at start-up, just before the
// timed region and just after it — and scales the run's end-to-end
// timings by sqrt(refCalibNs / kernel time) (set-up by the first two
// windows, everything else by the last two), which moves them toward what
// the reference box at its quiet speed would have measured.
//
// Only half of the measured slowdown is removed (the square root) because
// the kernel is not the workload: in mild slow spells this box slows the
// kernel's dense arithmetic by more than it slows the program, so the full
// ratio over-corrects. Across the workloads measured while the box
// wandered between spells, half the correction never spread wider than
// the raw timings and cut the spread by a fifth to a half; the full
// correction was sometimes better and sometimes worse than none.
//
// The kernel is harness code on purpose — the simulator's kind of
// arithmetic and a map lookup, no allocation — so no change to the
// program can move it, and it runs in windows of its own, on GOMAXPROCS
// goroutines at once, so the workload's background goroutines (the
// collector, a checkpoint writer) do not blur it. Per-layer metrics stay
// as measured; bench.speed_factor converts.
const (
	calibWindowLen = 80 * time.Millisecond
	// refCalibNs is the kernel's median on the reference box (2 vCPU) when
	// quiet.
	refCalibNs = 200_000
)

type calibOp struct{ rate, util, lat, queue, sel float64 }

var (
	calibKeys = []string{"Source", "FlatMap", "Count", "Sink", "Window", "Join", "Filter", "Projection"}
	calibMap  = func() map[string]int {
		m := map[string]int{}
		for i, k := range calibKeys {
			m[k] = i
		}
		return m
	}()
)

// calibKernel pushes a rate through a 16-operator pipeline model 1,200
// times on private state.
func calibKernel(ops []calibOp) float64 {
	acc := 0.0
	for it := 0; it < 1200; it++ {
		in := 1000.0 + float64(it%13)
		for i := range ops {
			op := &ops[i]
			cap := op.rate * (1 - 0.02*float64(i))
			out := math.Min(in*op.sel, cap)
			op.util = out / cap
			op.queue = op.queue*0.9 + math.Max(0, in-cap)*0.1
			op.lat = 5 + 3/(1.0001-math.Min(op.util, 0.999)) + math.Sqrt(op.queue)
			acc += op.lat
			in = out
		}
		acc += float64(calibMap[calibKeys[it%8]])
	}
	return acc
}

// calibWindow runs the kernel back to back for calibWindowLen on every
// processor and returns the median time of one kernel run.
func calibWindow() float64 {
	procs := runtime.GOMAXPROCS(0)
	samples := make([][]float64, procs)
	var wg sync.WaitGroup
	deadline := time.Now().Add(calibWindowLen)
	for p := range samples {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ops := make([]calibOp, 16)
			for i := range ops {
				ops[i] = calibOp{rate: 900 + 40*float64(i), sel: 1 - 0.01*float64(i%3)}
			}
			sink := 0.0
			for t := time.Now(); t.Before(deadline); {
				sink += calibKernel(ops)
				now := time.Now()
				samples[p] = append(samples[p], float64(now.Sub(t)))
				t = now
			}
			if sink == 0 {
				panic("bench: calibration kernel optimized away")
			}
		}(p)
	}
	wg.Wait()
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	return median(all)
}
