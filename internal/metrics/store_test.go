package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// Record is the name+tags append path the handle path is checked
// against (TestHandlePathMatchesRecordPath): it resolves the series on
// every call.
func (s *Store) Record(name string, tags map[string]string, t, v float64) error {
	return s.Series(name, tags).Append(t, v)
}

func TestEncodeTags(t *testing.T) {
	if encodeTags(nil) != "" {
		t.Fatal("nil tags should encode empty")
	}
	got := encodeTags(map[string]string{"b": "2", "a": "1"})
	if got != "a=1,b=2" {
		t.Fatalf("encodeTags = %q", got)
	}
}

func TestRecordAndLatest(t *testing.T) {
	s := NewStore()
	tags := map[string]string{"job": "wc"}
	if err := s.Record("m", tags, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Record("m", tags, 2, 20); err != nil {
		t.Fatal(err)
	}
	p, ok := s.Latest("m", tags)
	if !ok || p.Value != 20 || p.TimeSec != 2 {
		t.Fatalf("Latest = %v, %v", p, ok)
	}
	if _, ok := s.Latest("missing", nil); ok {
		t.Fatal("missing series should not be found")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	s := NewStore()
	_ = s.Record("m", nil, 5, 1)
	if err := s.Record("m", nil, 4, 1); err == nil {
		t.Fatal("expected out-of-order error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRecord should panic on error")
		}
	}()
	s.MustRecord("m", nil, 3, 1)
}

func TestSeriesDiscovery(t *testing.T) {
	s := NewStore()
	tags := []map[string]string{
		{"job": "wc", "operator": "map", "instance": "0"},
		{"job": "wc", "operator": "map", "instance": "1"},
		{"job": "wc", "operator": "sink", "instance": "0"},
	}
	for i, tg := range tags {
		s.MustRecord("rate", tg, 0, float64(i+1))
	}
	s.MustRecord("lat", map[string]string{"job": "wc"}, 0, 4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	// A series is found by its exact name and tags, in any tag order.
	for i, tg := range tags {
		if p, ok := s.Latest("rate", tg); !ok || p.Value != float64(i+1) {
			t.Fatalf("series %v = %v, %v", tg, p, ok)
		}
	}
	if p, ok := s.Latest("rate", map[string]string{"job": "wc", "operator": "map"}); ok {
		t.Fatalf("a tag subset matched %v", p)
	}
}

func TestConcurrentRecord(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tags := map[string]string{"instance": fmt.Sprint(w)}
			for i := 0; i < 500; i++ {
				s.MustRecord("m", tags, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for w := 0; w < 8; w++ {
		if p, ok := s.Latest("m", map[string]string{"instance": fmt.Sprint(w)}); !ok || p.TimeSec != 499 {
			t.Fatalf("instance %d: Latest = %v, %v, want t=499", w, p, ok)
		}
	}
}

// A job-level series (tagged job=..., no operator tag) is read back by
// its exact tags.
func TestJobMeanAndLatest(t *testing.T) {
	s := NewStore()
	job := map[string]string{"job": "wc"}
	s.MustRecord(MetricTrueProcessingRate, map[string]string{"job": "wc", "operator": "Count"}, 0, 10)
	s.MustRecord(MetricLatencyMS, job, 0, 50)
	s.MustRecord(MetricLatencyMS, job, 1, 70)
	p, ok := s.Latest(MetricLatencyMS, job)
	if !ok || p.Value != 70 || p.TimeSec != 1 {
		t.Fatalf("Latest = (%+v, %v), want value 70 at t=1", p, ok)
	}
	if _, ok := s.Latest(MetricLatencyMS, map[string]string{"job": "nojob"}); ok {
		t.Fatal("Latest found a sample for a missing job")
	}
}

// Latest by job tags must match only the exact job-level series:
// per-operator series of several operators for the same metric name must
// not shadow it.
func TestJobLatestWithMultipleOperatorSeries(t *testing.T) {
	s := NewStore()
	job := map[string]string{"job": "wc"}
	op := func(name string) map[string]string { return map[string]string{"job": "wc", "operator": name} }
	s.MustRecord(MetricInputRate, op("Source"), 5, 111)
	s.MustRecord(MetricInputRate, op("Count"), 6, 222)
	s.MustRecord(MetricInputRate, op("Sink"), 7, 333)

	// No job-level series exists yet: Latest must not pick an
	// operator-tagged one.
	if p, ok := s.Latest(MetricInputRate, job); ok {
		t.Fatalf("Latest matched an operator series: %+v", p)
	}

	// Once the job-level series exists, it wins regardless of newer
	// operator samples.
	s.MustRecord(MetricInputRate, job, 8, 999)
	s.MustRecord(MetricInputRate, op("Count"), 9, 444)
	p, ok := s.Latest(MetricInputRate, job)
	if !ok || p.Value != 999 {
		t.Fatalf("Latest = (%+v, %v), want the job-level 999", p, ok)
	}
}
