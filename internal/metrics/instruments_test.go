package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	s := NewStore()
	c := s.Counter("autrascale.rescales", map[string]string{"job": "wc"})
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	if again := s.Counter("autrascale.rescales", map[string]string{"job": "wc"}); again != c {
		t.Fatal("same name+tags returned a different counter")
	}
	if other := s.Counter("autrascale.rescales", map[string]string{"job": "yahoo"}); other == c {
		t.Fatal("different tags shared a counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	s := NewStore()
	c := s.Counter("n", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %g, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	s := NewStore()
	h := s.Histogram("bo.iterations", nil, []float64{1, 5, 10})
	for _, v := range []float64{0, 1, 3, 7, 10, 25} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if h.samples != 6 {
		t.Fatalf("count = %d, want 6", h.samples)
	}
	if snap.Sum != 46 {
		t.Fatalf("sum = %g, want 46", snap.Sum)
	}
	// Cumulative: <=1 → {0,1}; <=5 → +{3}; <=10 → +{7,10}; +Inf → +{25}.
	want := []uint64{2, 3, 5, 6}
	for i, w := range want {
		if snap.CumulativeCounts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.CumulativeCounts[i], w)
		}
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	s := NewStore()
	h := s.Histogram("x", nil, []float64{10, 1, 5})
	h.Observe(2)
	snap := h.Snapshot()
	if h.bounds[0] != 1 || h.bounds[1] != 5 || h.bounds[2] != 10 {
		t.Fatalf("bounds not sorted: %v", h.bounds)
	}
	if snap.CumulativeCounts[1] != 1 {
		t.Fatalf("sample 2 not in <=5 bucket: %v", snap.CumulativeCounts)
	}
}

func TestInstrumentExposition(t *testing.T) {
	s := NewStore()
	s.MustRecord("taskmanager.job.throughput", map[string]string{"job": "wc"}, 1, 100)
	s.Counter("autrascale.replans", map[string]string{"job": "wc"}).Add(3)
	h := s.Histogram("autrascale.decision.margin", map[string]string{"job": "wc"}, []float64{0, 0.1})
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := s.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`autrascale_replans_total{job="wc"} 3`,
		`autrascale_decision_margin_bucket{job="wc",le="0"} 0`,
		`autrascale_decision_margin_bucket{job="wc",le="0.1"} 1`,
		`autrascale_decision_margin_bucket{job="wc",le="+Inf"} 2`,
		`autrascale_decision_margin_sum{job="wc"} 0.55`,
		`autrascale_decision_margin_count{job="wc"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

func TestHistogramNoTags(t *testing.T) {
	s := NewStore()
	s.Histogram("plain", nil, []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := s.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `plain_bucket{le="1"} 1`) {
		t.Errorf("untagged histogram rendered wrong:\n%s", b.String())
	}
}
