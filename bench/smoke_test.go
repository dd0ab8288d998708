package main

import (
	"math"
	"testing"
)

// smokeSize is the smallest run that still gives every percentile its ten
// samples beyond (round_p99_ms needs 1,000 rounds, http_p95_ms 200
// requests): job counts shrink a hundredfold, work by about half.
var smokeSize = map[string]struct{ seconds, scale float64 }{
	wPlanStorm:     {3, 0.01},
	wLearn:         {3, 0.01},
	wFleetSteady:   {3, 0.01},
	wSnapshotCycle: {3, 0.01},
	wTelemetry:     {3, 0.01},
	wChaosReplay:   {3, 0.01},
	wMetricsd:      {4.2, 0.25},
}

// Every workload, both passes: each named metric present, finite and
// carrying its unit; native end-to-end cells live; no failed operation;
// and the two passes — different trace modes, different worker counts —
// agreeing on the digest of the simulated outcome.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range registry {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == wMetricsd && testing.Short() {
				t.Skip("builds and drives the real daemon")
			}
			size := smokeSize[w.Name]
			dir := t.TempDir()
			var digests [2]string
			passes := []bool{false, true}
			if w.Name == wMetricsd {
				// One daemon start is most of this test's time; the traced
				// pass reports both metric lists, and the schedule digest has
				// nothing a second pass could contradict.
				passes = []bool{true}
			}
			for i, traced := range passes {
				res, err := runPass(passConfig{Workload: w.Name, Seed: 7, Seconds: size.seconds,
					Scale: size.scale, Traced: traced, OutDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Ops == 0 {
					t.Fatalf("traced=%v: correct=%v ops=%d failed_ops=%d failures=%v",
						traced, res.Correct, res.Ops, res.Failed, res.Failures)
				}
				digests[i] = res.Digest
				for _, specs := range [][]metricSpec{endToEnd, perLayer} {
					for _, m := range specs {
						d, ok := res.Metrics[m.Name]
						if !ok {
							t.Errorf("traced=%v: metric %s missing", traced, m.Name)
							continue
						}
						if d.Unit != m.Unit || math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
							t.Errorf("traced=%v: %s = %v %q, want a finite value in %q", traced, m.Name, d.Value, d.Unit, m.Unit)
						}
					}
				}
				for _, m := range endToEnd {
					d := res.Metrics[m.Name]
					native := false
					for _, n := range m.Native {
						native = native || n == w.Name
					}
					if d.Value <= 0 {
						t.Errorf("traced=%v: end-to-end %s = %v, want > 0 on every workload", traced, m.Name, d.Value)
					}
					if native == d.Fallback {
						t.Errorf("traced=%v: %s native=%v but fallback=%v", traced, m.Name, native, d.Fallback)
					}
				}
				if traced {
					// 0.95 and more at full size; at a hundredth of the jobs the
					// harness's own bookkeeping between spans weighs more.
					if cover := res.Metrics["bench.top_span_cover_share"].Value; w.Name != wMetricsd && cover < 0.8 {
						t.Errorf("top-level spans cover %.3f of the region", cover)
					}
				}
			}
			if len(passes) == 2 && digests[0] != digests[1] {
				t.Errorf("digest %s untraced, %s traced: the passes disagree on the simulated outcome", digests[0], digests[1])
			}
		})
	}
}
