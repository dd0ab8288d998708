package experiments

import (
	"math"
	"testing"

	"autrascale/internal/dataflow"
	"autrascale/internal/workloads"
)

// Fig. 1 shape: while the input rate is below the job's capacity the lag
// stays near zero and latency is flat; once the rate exceeds capacity the
// lag and event-time latency grow monotonically (paper Observation 1).
func TestFig1Shape(t *testing.T) {
	res, err := RunFig1(Fig1Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 40 {
		t.Fatalf("series too short: %d", len(res.Series))
	}
	var early, late *Fig1Point
	for i := range res.Series {
		p := &res.Series[i]
		if p.TimeSec > 500 && p.TimeSec < 590 && early == nil {
			early = p // rate 100k, well under capacity (~246k at parallelism 2)
		}
		if p.TimeSec > 2900 && late == nil {
			late = p // rate 300k, over capacity
		}
	}
	if early == nil || late == nil {
		t.Fatal("sampling windows missing")
	}
	if early.LagRecords > 1000 {
		t.Fatalf("lag at 100k input = %v, want ~0", early.LagRecords)
	}
	if math.Abs(early.ThroughputRPS-100e3) > 3e3 {
		t.Fatalf("throughput at 100k input = %v", early.ThroughputRPS)
	}
	if late.LagRecords < 1e6 {
		t.Fatalf("lag at 300k input = %v, want large accumulation", late.LagRecords)
	}
	// Throughput saturates near capacity, below the input rate.
	if late.ThroughputRPS > 260e3 {
		t.Fatalf("saturated throughput = %v, want ~246k", late.ThroughputRPS)
	}
	if late.EventLatMS < 10*early.EventLatMS {
		t.Fatalf("event latency should explode under saturation: %v vs %v",
			late.EventLatMS, early.EventLatMS)
	}
	// Lag must be non-decreasing after the rate exceeds capacity (t >= 1800,
	// rate 250k+ vs capacity 246k).
	prev := -1.0
	for _, p := range res.Series {
		if p.TimeSec < 1900 {
			continue
		}
		if prev >= 0 && p.LagRecords < prev-1000 {
			t.Fatalf("lag shrank while saturated at t=%v: %v -> %v", p.TimeSec, prev, p.LagRecords)
		}
		prev = p.LagRecords
	}
	if len(res.Render()) != 1 {
		t.Fatal("Render should produce one table")
	}
}

// Fig. 2 shape: non-linear throughput scaling with saturation, and
// U-shaped latency (Observations 2.1, 2.2).
func TestFig2Shape(t *testing.T) {
	res, err := RunFig2(Fig2Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	p := res.Points
	if p[1].ThroughputRPS >= 2*p[0].ThroughputRPS {
		t.Fatal("k=2 should be sublinear vs k=1")
	}
	if p[2].ThroughputRPS <= p[1].ThroughputRPS {
		t.Fatal("k=3 should still improve throughput")
	}
	// Latency falls at first...
	if !(p[0].ProcLatencyMS > p[1].ProcLatencyMS && p[1].ProcLatencyMS > p[2].ProcLatencyMS) {
		t.Fatalf("latency should fall with early parallelism: %v %v %v",
			p[0].ProcLatencyMS, p[1].ProcLatencyMS, p[2].ProcLatencyMS)
	}
	// ...and is higher at k=6 than at the minimum (the upturn).
	min := p[2].ProcLatencyMS
	for _, q := range p[2:5] {
		if q.ProcLatencyMS < min {
			min = q.ProcLatencyMS
		}
	}
	if p[5].ProcLatencyMS <= min {
		t.Fatalf("latency should rise again at k=6: %v vs min %v", p[5].ProcLatencyMS, min)
	}
	if len(res.Render()) != 1 {
		t.Fatal("Render should produce one table")
	}
}

// Fig. 5 shape: every workload converges in <= 4 iterations; only Yahoo
// is capped (repeat-terminated); parallelism vectors match the paper's
// headline operating points.
func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(Fig5Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 {
		t.Fatalf("workloads = %d", len(res.Workloads))
	}
	for _, w := range res.Workloads {
		if w.Iterations > 4 {
			t.Fatalf("%s: %d iterations > 4", w.Name, w.Iterations)
		}
		switch w.Name {
		case "yahoo":
			if w.ReachedTarget {
				t.Fatal("yahoo is Redis-capped and must not reach 60k")
			}
			if !w.TerminatedRepeat {
				t.Fatal("yahoo must terminate by the repeated-config rule")
			}
			if math.Abs(w.BestThroughputRPS-34e3) > 1e3 {
				t.Fatalf("yahoo best throughput = %v, want ~34k (Redis cap)", w.BestThroughputRPS)
			}
			if w.Base.String() != "(4, 2, 1, 1, 34)" {
				t.Fatalf("yahoo base = %v, want the paper's p2 (4, 2, 1, 1, 34)", w.Base)
			}
		case "wordcount":
			if !w.ReachedTarget {
				t.Fatal("wordcount must reach 350k")
			}
			if w.Base.String() != "(3, 4, 12, 10)" {
				t.Fatalf("wordcount base = %v, want (3, 4, 12, 10)", w.Base)
			}
		default:
			if !w.ReachedTarget {
				t.Fatalf("%s must reach its target", w.Name)
			}
		}
	}
	// Render includes the Yahoo trace table.
	tables := res.Render()
	if len(tables) != 2 {
		t.Fatalf("Render tables = %d, want 2", len(tables))
	}
}

// Tables II/III + Figs. 6/7 shape: AuTraScale meets QoS everywhere and
// saves substantial resources vs DRS(observed) in both scenarios; in the
// scale-down scenario DRS(observed) cannot shed its over-provisioning.
func TestElasticityShape(t *testing.T) {
	for _, sc := range []Scenario{ScaleUp, ScaleDown} {
		res, err := RunElasticity(sc, ElasticityOptions{Seed: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 2 {
			t.Fatalf("%s: jobs = %d", sc, len(res.Jobs))
		}
		for _, j := range res.Jobs {
			a := j.Method("AuTraScale")
			obs := j.Method("DRS(observed)")
			dtrue := j.Method("DRS(true)")
			if a == nil || obs == nil || dtrue == nil {
				t.Fatalf("%s/%s: missing methods", sc, j.Workload)
			}
			if !a.LatencyMet || !a.ThroughputMet {
				t.Fatalf("%s/%s: AuTraScale violates QoS: %+v", sc, j.Workload, a)
			}
			if a.TotalParallelism >= obs.TotalParallelism {
				t.Fatalf("%s/%s: AuTraScale (%d) should use less than DRS(observed) (%d)",
					sc, j.Workload, a.TotalParallelism, obs.TotalParallelism)
			}
		}
		if s := res.Savings("DRS(observed)"); s < 0.15 {
			t.Fatalf("%s: savings vs DRS(observed) = %.1f%%, want substantial", sc, 100*s)
		}
		if len(res.Render()) != 4 {
			t.Fatal("Render should produce 4 tables")
		}
	}
	// The headline asymmetry: scale-down savings exceed scale-up savings
	// (66.6% vs 36.7% in the paper) because the observed-rate baseline
	// cannot scale down at all.
	up, err := RunElasticity(ScaleUp, ElasticityOptions{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	down, err := RunElasticity(ScaleDown, ElasticityOptions{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if down.Savings("DRS(observed)") <= up.Savings("DRS(observed)") {
		t.Fatalf("scale-down savings (%.2f) should exceed scale-up savings (%.2f)",
			down.Savings("DRS(observed)"), up.Savings("DRS(observed)"))
	}
}

func TestElasticityUnknownScenario(t *testing.T) {
	if _, err := RunElasticity(Scenario("sideways"), ElasticityOptions{}); err == nil {
		t.Fatal("unknown scenario should error")
	}
}

// Fig. 8 shape: AuTraScale's transfer learning ends on configurations no
// larger than DS2's on both queries, with positive average parallelism
// and memory savings, while holding the latency target.
func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(Fig8Options{Seed: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 2 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	for _, q := range res.Queries {
		var a, d *Fig8Method
		for i := range q.Methods {
			switch q.Methods[i].Method {
			case "AuTraScale":
				a = &q.Methods[i]
			case "DS2":
				d = &q.Methods[i]
			}
		}
		if a == nil || d == nil {
			t.Fatalf("%s: missing methods", q.Query)
		}
		if a.TotalParallelism > d.TotalParallelism {
			t.Fatalf("%s: AuTraScale (%d) should not exceed DS2 (%d)",
				q.Query, a.TotalParallelism, d.TotalParallelism)
		}
		if a.LatencyMeanMS > q.TargetLatencyMS {
			t.Fatalf("%s: AuTraScale latency %v exceeds target %v",
				q.Query, a.LatencyMeanMS, q.TargetLatencyMS)
		}
		if a.LatencyP50 <= 0 || a.LatencyP99 < a.LatencyP50 {
			t.Fatalf("%s: bad latency distribution %+v", q.Query, a)
		}
	}
	if s := res.Savings(func(m Fig8Method) float64 { return float64(m.TotalParallelism) }); s <= 0 {
		t.Fatalf("parallelism savings = %.1f%%, want positive (paper: 13.5%%)", 100*s)
	}
	if s := res.Savings(func(m Fig8Method) float64 { return m.MemUsedMB }); s <= 0 {
		t.Fatalf("memory savings = %.1f%%, want positive (paper: 6.2%%)", 100*s)
	}
	if len(res.Render()) != 4 {
		t.Fatal("Render should produce 4 tables")
	}
}

// A configuration the engine refuses must fail Fig. 8(b)'s final window,
// not measure the old configuration under the new label.
func TestMeasureFinalRejectsWrongLengthVector(t *testing.T) {
	e, err := workloads.NewEngine(workloads.NexmarkQ5(), workloads.EngineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Now()
	n := e.Graph().NumOperators()
	if _, err := measureFinal(e, dataflow.Uniform(n+1, 2)); err == nil {
		t.Fatalf("measureFinal accepted a %d-operator vector for a %d-operator graph", n+1, n)
	}
	if e.Now() != before {
		t.Fatalf("measureFinal ran the engine %v s after a refused rescale", e.Now()-before)
	}
}

// Table IV shape: overheads are small (well under a second) and
// Alg1_use is orders of magnitude cheaper than Alg1_train.
func TestTable4Shape(t *testing.T) {
	res, err := RunTable4(Table4Options{Seed: 5, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(table4OperatorCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Alg1TrainSec <= 0 || r.Alg1UseSec <= 0 || r.Alg2Sec <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		if r.Alg1TrainSec > 5 || r.Alg2Sec > 5 {
			t.Fatalf("overhead too large to be plausible: %+v", r)
		}
		if r.Alg1UseSec >= r.Alg1TrainSec {
			t.Fatalf("a single prediction must be cheaper than training: %+v", r)
		}
	}
	if len(res.Render()) != 1 {
		t.Fatal("Render should produce one table")
	}
}
