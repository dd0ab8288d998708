package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceExposition is the pre-handle renderer, kept as the test
// reference: sort every key, look each series up by key, and print with
// fmt verbs. WriteExposition must stay byte-identical to it.
func referenceExposition(s *Store, names []string) string {
	var keys []SeriesKey
	s.mu.RLock()
	for k := range s.series {
		if slices.Contains(names, k.Name) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	var b strings.Builder
	for _, k := range keys {
		last, ok := s.lookup(k).Latest()
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s%s %g %d\n", sanitizeMetricName(k.Name), formatLabels(k.Tags),
			last.Value, int64(last.TimeSec*1000))
	}
	instrumentKeys := func(m *sync.Map) []SeriesKey {
		var keys []SeriesKey
		m.Range(func(k, _ any) bool {
			keys = append(keys, k.(SeriesKey))
			return true
		})
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
		return keys
	}
	for _, k := range instrumentKeys(&s.counters) {
		c, _ := s.counters.Load(k)
		fmt.Fprintf(&b, "%s_total%s %g\n", sanitizeMetricName(k.Name), formatLabels(k.Tags), c.(*Counter).Value())
	}
	for _, k := range instrumentKeys(&s.histograms) {
		v, _ := s.histograms.Load(k)
		h := v.(*Histogram)
		snap := h.Snapshot()
		name, labels := sanitizeMetricName(k.Name), formatLabels(k.Tags)
		le := func(bound string) string {
			if labels == "" {
				return fmt.Sprintf("{le=%q}", bound)
			}
			return fmt.Sprintf("%s,le=%q}", labels[:len(labels)-1], bound)
		}
		for j, bound := range h.bounds {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, le(formatBound(bound)), snap.CumulativeCounts[j])
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, le("+Inf"), h.samples)
		fmt.Fprintf(&b, "%s_sum%s %g\n", name, labels, snap.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, h.samples)
	}
	return b.String()
}

// awkwardValues are samples whose %g rendering is easy to get wrong.
var awkwardValues = []float64{0, -0.0, 1, -1, 29700, 0.1, 1e-7, 123456789, 1e21, 1.5e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3}

// The handle path and the name+tags path are the same series: a store
// fed through Series().Append and one fed through Record render
// byte-identical expositions and answer Latest identically — and
// both match the fmt-based reference renderer.
func TestHandlePathMatchesRecordPath(t *testing.T) {
	names := []string{"taskmanager.job.latency", "kafka.consumer.recordsLag", "9.odd name"}
	tagSets := []map[string]string{nil, {"job": "wc"}, {"job": "wc", "operator": "Count"}, {"job": "a b", "z": "q\"uote"}}
	byRecord, byHandle := NewStore(), NewStore()
	for _, n := range names {
		for _, tags := range tagSets {
			h := byHandle.Series(n, tags)
			for i, v := range awkwardValues {
				ts := float64(i) * 0.5
				if err := byRecord.Record(n, tags, ts, v); err != nil {
					t.Fatal(err)
				}
				if err := h.Append(ts, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, s := range []*Store{byRecord, byHandle} {
		s.Counter("autrascale.decisions", map[string]string{"job": "wc"}).Add(2.5)
		s.Counter("plain", nil).Inc()
		for _, tags := range []map[string]string{nil, {"job": "wc"}} {
			h := s.Histogram("autrascale.bo.iterations", tags, []float64{0.5, 1, 1e6})
			h.Observe(0.25)
			h.Observe(7)
			h.Observe(1e9)
		}
	}

	var a, b bytes.Buffer
	if err := byRecord.WriteExposition(&a); err != nil {
		t.Fatal(err)
	}
	if err := byHandle.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("handle and Record stores render differently:\n%s\n---\n%s", a.String(), b.String())
	}
	if want := referenceExposition(byRecord, names); a.String() != want {
		t.Fatalf("exposition drifted from the fmt reference:\n%s\n--- want\n%s", a.String(), want)
	}

	for _, n := range names {
		for _, tags := range tagSets {
			h := byHandle.Series(n, tags)
			wantLatest, wantOK := byRecord.Latest(n, tags)
			for _, got := range []func() (Point, bool){
				h.Latest,
				func() (Point, bool) { return byHandle.Latest(n, tags) },
			} {
				p, ok := got()
				if ok != wantOK || !samePoint(p, wantLatest) {
					t.Fatalf("%s %v: Latest = %v,%v want %v,%v", n, tags, p, ok, wantLatest, wantOK)
				}
			}
		}
	}
}

// samePoint is Point equality that treats NaN as equal to itself.
func samePoint(a, b Point) bool {
	return a.TimeSec == b.TimeSec && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

func TestOutOfOrderRejectedOnBothPaths(t *testing.T) {
	s := NewStore()
	h := s.Series("m", nil)
	if err := h.Append(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(4, 1); err == nil {
		t.Fatal("handle accepted an out-of-order sample")
	}
	err := s.Record("m", nil, 4.5, 1)
	if err == nil {
		t.Fatal("Record accepted an out-of-order sample")
	}
	if want := "metrics: out-of-order sample for m@: 4.5 after 5"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if err := h.Append(5, 2); err != nil {
		t.Fatalf("equal timestamps must be accepted: %v", err)
	}
	if p, _ := h.Latest(); p != (Point{TimeSec: 5, Value: 2}) {
		t.Fatalf("Latest = %v, want the accepted (5, 2)", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend did not panic on an out-of-order sample")
		}
	}()
	h.MustAppend(1, 1)
}

// Newest sample wins: each Append replaces the last, in steady state
// without allocating.
func TestAppendAllocatesNothing(t *testing.T) {
	h := NewStore().Series("m", nil)
	next := 0.0
	if avg := testing.AllocsPerRun(1000, func() {
		if err := h.Append(next, -next); err != nil {
			t.Fatal(err)
		}
		next++
	}); avg != 0 {
		t.Fatalf("Append allocates %g per call", avg)
	}
	if p, ok := h.Latest(); !ok || p.TimeSec != next-1 || p.Value != 1-next {
		t.Fatalf("Latest = %v, %v, want the newest of %g samples", p, ok, next)
	}
}

// The gauge contract, case by case: a series holds exactly its newest
// accepted sample, read back bit for bit through the handle and by name.
func TestGaugeContract(t *testing.T) {
	tags := map[string]string{"job": "wc"}
	// latest checks the handle and the by-name read agree on want.
	latest := func(t *testing.T, s *Store, h *Series, want Point, wantOK bool) {
		t.Helper()
		for path, read := range map[string]func() (Point, bool){
			"handle":  h.Latest,
			"by name": func() (Point, bool) { return s.Latest("m", tags) },
		} {
			if p, ok := read(); ok != wantOK || !samePoint(p, want) {
				t.Fatalf("%s Latest = %v, %v, want %v, %v", path, p, ok, want, wantOK)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Store, h *Series)
	}{
		{"newest sample wins", func(t *testing.T, s *Store, h *Series) {
			for i, v := range []float64{3, 1, 4, 1, 5} {
				h.MustAppend(float64(i), v)
				latest(t, s, h, Point{TimeSec: float64(i), Value: v}, true)
			}
		}},
		{"equal timestamp replaces the value", func(t *testing.T, s *Store, h *Series) {
			h.MustAppend(7, 1)
			h.MustAppend(7, 2)
			latest(t, s, h, Point{TimeSec: 7, Value: 2}, true)
		}},
		{"rejected sample keeps the newest", func(t *testing.T, s *Store, h *Series) {
			h.MustAppend(10, 1)
			for _, ts := range []float64{9.999, 0, -1, math.Inf(-1)} {
				if err := h.Append(ts, 99); err == nil {
					t.Fatalf("Append(%g) after 10 accepted", ts)
				}
				latest(t, s, h, Point{TimeSec: 10, Value: 1}, true)
			}
		}},
		{"first sample may come at any time", func(t *testing.T, s *Store, h *Series) {
			// An empty series has no time to be out of order with, not
			// even the zero value of its sample.
			if err := h.Append(-5, 1); err != nil {
				t.Fatalf("first sample at t=-5: %v", err)
			}
			latest(t, s, h, Point{TimeSec: -5, Value: 1}, true)
		}},
		{"values read back bit for bit", func(t *testing.T, s *Store, h *Series) {
			for i, v := range awkwardValues {
				h.MustAppend(float64(i), v)
				p, _ := s.Latest("m", tags)
				if math.Float64bits(p.Value) != math.Float64bits(v) {
					t.Fatalf("stored %v (bits %x), read %v (bits %x)",
						v, math.Float64bits(v), p.Value, math.Float64bits(p.Value))
				}
			}
		}},
		{"unwritten series is registered but empty", func(t *testing.T, s *Store, h *Series) {
			latest(t, s, h, Point{}, false)
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want the resolved series", s.Len())
			}
			var buf bytes.Buffer
			if err := s.WriteExposition(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 {
				t.Fatalf("an unwritten series is exposed:\n%s", buf.String())
			}
		}},
		{"nil handle reads empty", func(t *testing.T, _ *Store, _ *Series) {
			if p, ok := (*Series)(nil).Latest(); ok || p != (Point{}) {
				t.Fatalf("nil Latest = %v, %v", p, ok)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			tc.run(t, s, s.Series("m", tags))
		})
	}
}

// A handle outlives DropTagged detached: appends succeed and
// read back through the handle, but the store neither exposes nor finds
// the points, and re-resolving the name starts a fresh series.
func TestDetachedHandles(t *testing.T) {
	for name, detach := range map[string]func(*Store){
		"DropTagged": func(s *Store) { s.DropTagged("job", "a") },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewStore()
			tags := map[string]string{"job": "a"}
			h := s.Series("m", tags)
			h.MustAppend(100, 1)
			c := s.Counter("c", tags)
			c.Inc()
			detach(s)

			if err := h.Append(101, 2); err != nil {
				t.Fatalf("append to a detached handle: %v", err)
			}
			c.Inc()
			if p, ok := h.Latest(); !ok || p.Value != 2 {
				t.Fatalf("detached handle lost its points: %v %v", p, ok)
			}
			if s.Len() != 0 {
				t.Fatalf("store still counts %d series", s.Len())
			}
			if _, ok := s.Latest("m", tags); ok {
				t.Fatal("store still finds the detached series")
			}
			var buf bytes.Buffer
			if err := s.WriteExposition(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 {
				t.Fatalf("detached telemetry exposed:\n%s", buf.String())
			}
			// The name is free again: an earlier timestamp is not out of order.
			if err := s.Record("m", tags, 1, 9); err != nil {
				t.Fatalf("fresh series after %s: %v", name, err)
			}
			if s.Series("m", tags) == h {
				t.Fatal("re-resolving returned the detached handle")
			}
			if got := s.Counter("c", tags).Value(); got != 0 {
				t.Fatalf("fresh counter starts at %g", got)
			}
		})
	}
}

func TestDropTagged(t *testing.T) {
	s := NewStore()
	for _, job := range []string{"a", "ab", "b"} {
		s.MustRecord("lat", map[string]string{"job": job}, 1, 1)
		s.MustRecord("rate", map[string]string{"job": job, "operator": "a"}, 1, 1)
		s.Counter("steps", map[string]string{"job": job}).Inc()
		s.Histogram("iters", map[string]string{"job": job, "action": "a"}, []float64{1}).Observe(1)
	}
	s.MustRecord("fleet", nil, 1, 1)
	s.Counter("rounds", nil).Inc()

	if n := s.DropTagged("job", "a", "nope"); n != 4 {
		t.Fatalf("dropped %d, want job a's 2 series + 2 instruments", n)
	}
	var buf bytes.Buffer
	if err := s.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `job="a"`) {
		t.Fatalf("job a still exposed:\n%s", out)
	}
	for _, want := range []string{`lat{job="ab"}`, `rate{job="b",operator="a"}`, `steps_total{job="ab"}`,
		`iters_count{action="a",job="b"}`, "fleet 1 1000", "rounds_total 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DropTagged removed %q:\n%s", want, out)
		}
	}
	for job, want := range map[string]bool{"a": false, "ab": true, "b": true} {
		if _, ok := s.Latest("lat", map[string]string{"job": job}); ok != want {
			t.Fatalf("after the drop, job %s's series found = %v", job, ok)
		}
	}
	if n := s.DropTagged("job"); n != 0 {
		t.Fatalf("no values dropped %d", n)
	}
}

// Appends through handles race scrapes, Latest reads, series creation
// and drops; run under -race (make race).
func TestConcurrentAppendScrapeCreateDrop(t *testing.T) {
	s := NewStore()
	const writers, samples = 4, 3000
	stop := make(chan struct{})
	var readers, writersWG sync.WaitGroup

	read := func(f func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	read(func() {
		if err := s.WriteExposition(io.Discard); err != nil {
			t.Error(err)
		}
	})
	seen := make([]float64, writers) // newest TimeSec read per writer
	read(func() {
		for w := 0; w < writers; w++ {
			p, ok := s.Latest("m", map[string]string{"job": fmt.Sprint(w)})
			if !ok {
				continue
			}
			if p.TimeSec < seen[w] || p.Value != float64(w) {
				t.Errorf("writer %d: Latest went from t=%g to %v", w, seen[w], p)
				return
			}
			seen[w] = p.TimeSec
		}
	})
	churn := 0
	read(func() {
		// Series come and go while the others run.
		tags := map[string]string{"job": "churn", "n": fmt.Sprint(churn % 8)}
		s.Series("m", tags).MustAppend(float64(churn), 1)
		s.Counter("c", tags).Inc()
		if churn%8 == 7 {
			s.DropTagged("job", "churn")
		}
		churn++
	})

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			h := s.Series("m", map[string]string{"job": fmt.Sprint(w)})
			for i := 0; i < samples; i++ {
				if err := h.Append(float64(i), float64(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < writers; w++ {
		p, ok := s.Latest("m", map[string]string{"job": fmt.Sprint(w)})
		if !ok || p.TimeSec != samples-1 || p.Value != float64(w) {
			t.Fatalf("writer %d: Latest = %v, %v", w, p, ok)
		}
	}
}

// Handles on one series serialize on the series lock: a write older
// than the newest is rejected, so the newest sample always wins.
func TestConcurrentAppendSameSeries(t *testing.T) {
	s := NewStore()
	const writers, samples = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Series("m", nil)
			for i := 0; i < samples; i++ {
				if err := h.Append(float64(i), float64(g)); err != nil && !strings.Contains(err.Error(), "out-of-order") {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if p, ok := s.Latest("m", nil); !ok || p.TimeSec != samples-1 || p.Value < 0 || p.Value >= writers {
		t.Fatalf("Latest = %v, %v, want t=%d from one of the writers", p, ok, samples-1)
	}
}
