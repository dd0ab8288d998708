package slo

import (
	"math"
	"testing"
)

// testTargetMS is the latency target the tracker tests judge windows
// against.
const testTargetMS = 200

// observe judges a window that kept up with its input and feeds the
// verdict to the tracker.
func observe(t *Tracker, tSec, latencyMS, lag, rate float64) {
	t.Observe(tSec, Judge(testTargetMS, latencyMS, rate, rate, lag))
}

// steadyObserve feeds n windows at interval dt, all with the same
// latency/lag outcome.
func steadyObserve(t *Tracker, n int, dtSec, latencyMS, lag, rate float64) {
	for i := 1; i <= n; i++ {
		observe(t, float64(i)*dtSec, latencyMS, lag, rate)
	}
}

// Judge at each boundary of its three clauses: the comparisons are
// strict, a NaN latency is not over the target, and a window with no
// input cannot fall behind it.
func TestJudge(t *testing.T) {
	const target = 200.0
	rate := 1000.0
	up, down := math.Inf(1), math.Inf(-1)
	behind := 30 * rate // between the trigger's 1 s and the budget's 60 s
	for _, c := range []struct {
		name                string
		latency, thr, lag   float64
		rate                float64
		latOK, thrOK, lagOK bool
	}{
		{"latency at the target", target, rate, 0, rate, true, true, true},
		{"latency one ulp under", math.Nextafter(target, down), rate, 0, rate, true, true, true},
		{"latency one ulp over", math.Nextafter(target, up), rate, 0, rate, false, true, true},
		{"NaN latency", math.NaN(), rate, 0, rate, true, true, true},
		{"no input", 0, 0, 1e12, 0, true, true, true},
		{"throughput at 0.95 of the rate", 0, 0.95 * rate, behind, rate, true, true, true},
		{"throughput one ulp under 0.95", 0, math.Nextafter(0.95*rate, down), behind, rate, true, false, true},
		{"lag at 1 s of input", 0, 0, 1 * rate, rate, true, true, true},
		{"lag one ulp over 1 s", 0, 0, math.Nextafter(1*rate, up), rate, true, false, true},
		{"lag at 60 s of input", 0, rate, 60 * rate, rate, true, true, true},
		{"lag one ulp over 60 s", 0, rate, math.Nextafter(60*rate, up), rate, true, true, false},
		{"behind on every clause", 2 * target, 0, 100 * rate, rate, false, false, false},
	} {
		want := Verdict{LatencyOK: c.latOK, ThroughputOK: c.thrOK, BacklogOK: c.lagOK}
		if got := Judge(target, c.latency, c.thr, c.rate, c.lag); got != want {
			t.Errorf("%s: Judge = %+v, want %+v", c.name, got, want)
		}
	}
}

func TestNilTrackerIsHealthyNoOp(t *testing.T) {
	var tr *Tracker
	observe(tr, 60, 500, 1e9, 1000) // must not panic
	h := tr.Health()
	if h.State != StateHealthy || h.BurnRate != 0 || h.Observations != 0 {
		t.Fatalf("nil tracker health = %+v, want zero healthy", h)
	}
}

func TestHealthyUnderBudget(t *testing.T) {
	tr := New()
	steadyObserve(tr, 100, 60, 150, 0, 1000) // always under target, no lag
	h := tr.Health()
	if h.State != StateHealthy {
		t.Fatalf("state = %s, want healthy (%+v)", h.State, h)
	}
	if h.BurnRate != 0 {
		t.Fatalf("burn rate = %v, want 0", h.BurnRate)
	}
	if h.Observations != 100 {
		t.Fatalf("observations = %d, want 100", h.Observations)
	}
}

func TestSustainedViolationsBurn(t *testing.T) {
	tr := New()
	// Every window violates: violation fraction → 1, burn → 1/0.01 = 100
	// on both windows once they saturate — far past the page threshold.
	steadyObserve(tr, 200, 60, 500, 0, 1000)
	h := tr.Health()
	if h.State != StateBurning {
		t.Fatalf("state = %s, want burning (%+v)", h.State, h)
	}
	if h.BurnRate < 14.4 {
		t.Fatalf("burn rate = %v, want >= 14.4", h.BurnRate)
	}
	if h.Latency.FastBurn < h.BurnRate {
		t.Fatalf("fast burn %v should be >= governing burn %v", h.Latency.FastBurn, h.BurnRate)
	}
}

// A short spike trips the fast window but not the slow one: the
// multi-window rule must keep the governing burn low, so no page fires
// on transient noise.
func TestShortSpikeDoesNotPage(t *testing.T) {
	tr := New()
	steadyObserve(tr, 120, 60, 100, 0, 1000) // 2h healthy history
	// 3 violating windows (~3 minutes).
	for i := 1; i <= 3; i++ {
		observe(tr, 120*60+float64(i)*60, 500, 0, 1000)
	}
	h := tr.Health()
	if h.State == StateBurning {
		t.Fatalf("3-minute spike paged: %+v", h)
	}
	if h.Latency.FastBurn <= h.Latency.SlowBurn {
		t.Fatalf("fast window should react faster than slow: fast %v, slow %v",
			h.Latency.FastBurn, h.Latency.SlowBurn)
	}
}

func TestLagBudgetIndependentOfLatency(t *testing.T) {
	tr := New()
	// Latency fine, but backlog is 10 minutes of input — lag violation.
	steadyObserve(tr, 200, 60, 100, 600*1000, 1000)
	h := tr.Health()
	if h.Lag.FastBurn <= 0 {
		t.Fatalf("lag burn = %v, want > 0 (%+v)", h.Lag.FastBurn, h)
	}
	if h.Latency.FastBurn != 0 {
		t.Fatalf("latency burn = %v, want 0", h.Latency.FastBurn)
	}
	if h.State != StateBurning {
		t.Fatalf("sustained lag should burn, got %s", h.State)
	}
	if h.BurnRate != math.Min(h.Lag.FastBurn, h.Lag.SlowBurn) {
		t.Fatalf("governing burn %v should come from the lag budget %+v", h.BurnRate, h.Lag)
	}
}

// Irregular step spacing (a planning session burning simulated hours)
// must decay by elapsed time, not by sample count.
func TestTimeDecayOverGaps(t *testing.T) {
	tr := New()
	// Saturate with violations...
	steadyObserve(tr, 100, 60, 500, 0, 1000)
	burning := tr.Health()
	if burning.State != StateBurning {
		t.Fatalf("setup: want burning, got %s", burning.State)
	}
	// ...then one healthy observation after a 10-hour gap: both windows
	// must have decayed almost completely.
	observe(tr, 100*60+36000, 100, 0, 1000)
	h := tr.Health()
	if h.State != StateHealthy {
		t.Fatalf("after 10h gap + healthy sample: state %s (%+v)", h.State, h)
	}
	if h.Latency.SlowBurn > burning.Latency.SlowBurn/100 {
		t.Fatalf("slow burn barely decayed over 10 hours: %v -> %v",
			burning.Latency.SlowBurn, h.Latency.SlowBurn)
	}
}

func TestDegradedBetweenThresholds(t *testing.T) {
	// One violation in every 10 windows burns at about 10 times the 1%
	// budget — above sustainable, below the page threshold — in every
	// window once the slow window has warmed up.
	tr := New()
	for i := 1; i <= 400; i++ {
		lat := 100.0
		if i%10 == 0 {
			lat = 500
		}
		observe(tr, float64(i)*60, lat, 0, 1000)
		if h := tr.Health(); i > 200 && h.State != StateDegraded {
			t.Fatalf("window %d: state = %s, want degraded (burn %v)", i, h.State, h.BurnRate)
		}
	}
}

// The state thresholds are inclusive: burn exactly at 1.0 is degraded,
// exactly at 14.4 is burning, and the next float below each stays in the
// milder state.
func TestStateThresholdsAreInclusive(t *testing.T) {
	for _, c := range []struct {
		burn float64
		want State
	}{
		{0, StateHealthy},
		{math.Nextafter(1.0, 0), StateHealthy},
		{1.0, StateDegraded},
		{math.Nextafter(14.4, 0), StateDegraded},
		{14.4, StateBurning},
	} {
		if got := classify(c.burn); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.burn, got, c.want)
		}
	}
	// Health classifies through the same function: both latency windows
	// at exactly the budget fraction burn at exactly 1.0.
	tr := New()
	at := WindowState{Value: violationBudget, LastSec: 60, Started: true}
	tr.RestoreState(TrackerState{LatFast: at, LatSlow: at, Observations: 1, LastSec: 60})
	if h := tr.Health(); h.BurnRate != 1.0 || h.State != StateDegraded {
		t.Fatalf("windows at the budget: burn %v state %s, want exactly 1.0 and degraded", h.BurnRate, h.State)
	}
}

// Recovery is governed by the fast window: after a sustained burn, clean
// samples pull the fast window under the threshold within minutes while
// the slow window still remembers the incident, and min(fast, slow)
// must side with the fast one.
func TestFastSlowCrossoverOnRecovery(t *testing.T) {
	tr := New()
	steadyObserve(tr, 100, 60, 500, 0, 1000)
	if h := tr.Health(); h.State != StateBurning {
		t.Fatalf("setup: want burning, got %s", h.State)
	}
	// 20 minutes of clean samples: fast (tau 300s) decays to e^-4 ≈ 2% of
	// its saturated value; slow (tau 3600s) barely moves.
	last := 100.0 * 60
	for i := 1; i <= 20; i++ {
		observe(tr, last+float64(i)*60, 100, 0, 1000)
	}
	h := tr.Health()
	if h.Latency.FastBurn >= h.Latency.SlowBurn {
		t.Fatalf("fast window should have crossed under the slow one: fast %v, slow %v",
			h.Latency.FastBurn, h.Latency.SlowBurn)
	}
	if h.Latency.SlowBurn < 14.4 {
		t.Fatalf("slow window forgot the incident too fast: %v", h.Latency.SlowBurn)
	}
	if h.BurnRate != math.Min(h.Latency.FastBurn, h.Latency.SlowBurn) {
		t.Fatalf("governing burn %v is not min(fast, slow) %+v", h.BurnRate, h.Latency)
	}
	if h.State == StateBurning {
		t.Fatalf("recovery should have left burning within 20 min: %+v", h)
	}
}

func TestSeverityOrdering(t *testing.T) {
	if !(StateHealthy.Severity() < StateDegraded.Severity() &&
		StateDegraded.Severity() < StateBurning.Severity()) {
		t.Fatal("severity order broken")
	}
}

// Determinism: two trackers fed the same sequence report bit-identical
// health — the property that lets the fleet goldens hold with SLO
// tracking enabled.
func TestTrackerDeterminism(t *testing.T) {
	feed := func() Health {
		tr := New()
		for i := 1; i <= 500; i++ {
			lat := 100 + 300*math.Sin(float64(i)/7)
			lag := 1000 * math.Abs(math.Cos(float64(i)/11)) * 200
			observe(tr, float64(i)*60, lat, lag, 1000)
		}
		return tr.Health()
	}
	a, b := feed(), feed()
	if a != b {
		t.Fatalf("same feed diverged:\n%+v\n%+v", a, b)
	}
}
