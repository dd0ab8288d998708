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
		pts := s.WindowByKey(k, math.Inf(-1), math.Inf(1))
		if len(pts) == 0 {
			continue
		}
		last := pts[len(pts)-1]
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
// byte-identical expositions and answer Window/Latest identically — and
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
			for _, w := range [][2]float64{{0, 100}, {1, 3}, {2.25, 2.75}, {50, 60}, {3, 1}} {
				want := byRecord.Window(n, tags, w[0], w[1])
				for _, got := range [][]Point{h.Window(w[0], w[1]), byHandle.Window(n, tags, w[0], w[1])} {
					if len(got) != len(want) {
						t.Fatalf("%s %v window %v: %d points, want %d", n, tags, w, len(got), len(want))
					}
					for i := range got {
						if !samePoint(got[i], want[i]) {
							t.Fatalf("%s %v window %v point %d: %v want %v", n, tags, w, i, got[i], want[i])
						}
					}
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
	if pts := h.Window(0, 10); len(pts) != 2 {
		t.Fatalf("rejected samples were stored: %v", pts)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend did not panic on an out-of-order sample")
		}
	}()
	h.MustAppend(1, 1)
}

// fill appends samples t=0..n-1 with value == t.
func fill(t *testing.T, h *Series, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.Append(float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRun asserts pts is exactly the samples first..last.
func checkRun(t *testing.T, pts []Point, first, last int) {
	t.Helper()
	if len(pts) != last-first+1 {
		t.Fatalf("%d points, want %d (%d..%d)", len(pts), last-first+1, first, last)
	}
	for i, p := range pts {
		if want := float64(first + i); p.TimeSec != want || p.Value != want {
			t.Fatalf("point %d = %v, want t=v=%g", i, p, want)
		}
	}
}

func TestRetention(t *testing.T) {
	t.Run("exactly at cap keeps everything", func(t *testing.T) {
		h := NewStore().Series("m", nil)
		fill(t, h, retentionPoints)
		checkRun(t, h.Window(0, math.Inf(1)), 0, retentionPoints-1)
	})
	t.Run("one past cap recycles the oldest chunk", func(t *testing.T) {
		h := NewStore().Series("m", nil)
		fill(t, h, retentionPoints+1)
		checkRun(t, h.Window(0, math.Inf(1)), chunkPoints, retentionPoints)
		if p, ok := h.Latest(); !ok || p.TimeSec != retentionPoints {
			t.Fatalf("Latest after wrap = %v, %v", p, ok)
		}
	})
	t.Run("window straddling the evicted boundary", func(t *testing.T) {
		s := NewStore()
		h := s.Series("m", nil)
		fill(t, h, retentionPoints+1) // samples 0..chunkPoints-1 are gone
		checkRun(t, h.Window(chunkPoints-10, chunkPoints+10), chunkPoints, chunkPoints+10)
		if pts := h.Window(0, chunkPoints-1); len(pts) != 0 {
			t.Fatalf("evicted range returned %d points", len(pts))
		}
		checkRun(t, s.Window("m", nil, 0, chunkPoints+1), chunkPoints, chunkPoints+1)
	})
	t.Run("many wraps stay bounded and ordered", func(t *testing.T) {
		h := NewStore().Series("m", nil)
		const n = 5*retentionPoints + chunkPoints/2
		fill(t, h, n)
		pts := h.Window(0, math.Inf(1))
		if len(pts) > retentionPoints || len(pts) <= retentionPoints-chunkPoints {
			t.Fatalf("retained %d points, want within (%d, %d]", len(pts), retentionPoints-chunkPoints, retentionPoints)
		}
		checkRun(t, pts, n-len(pts), n-1)
		// Windows that cross chunk seams come back contiguous.
		checkRun(t, h.Window(n-3*chunkPoints-5, n-chunkPoints+5), n-3*chunkPoints-5, n-chunkPoints+5)
		if p, _ := h.Latest(); p.TimeSec != n-1 {
			t.Fatalf("Latest = %v, want t=%d", p, n-1)
		}
	})
	t.Run("steady state allocates nothing", func(t *testing.T) {
		h := NewStore().Series("m", nil)
		fill(t, h, retentionPoints)
		next := float64(retentionPoints)
		if avg := testing.AllocsPerRun(4*retentionPoints, func() {
			if err := h.Append(next, 1); err != nil {
				t.Fatal(err)
			}
			next++
		}); avg != 0 {
			t.Fatalf("Append at the cap allocates %g per call", avg)
		}
	})
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

// Appends through handles race scrapes, windowed reads, series creation
// and drops; run under -race (make race).
func TestConcurrentAppendScrapeCreateDrop(t *testing.T) {
	s := NewStore()
	const writers, samples = 4, 3 * retentionPoints
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
	read(func() {
		for w := 0; w < writers; w++ {
			pts := s.Window("m", map[string]string{"job": fmt.Sprint(w)}, 0, math.Inf(1))
			for i := 1; i < len(pts); i++ {
				if pts[i].TimeSec != pts[i-1].TimeSec+1 {
					t.Errorf("window not contiguous at %d: %v then %v", i, pts[i-1], pts[i])
					return
				}
			}
		}
		s.Latest("m", map[string]string{"job": "1"})
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

// Two handles on one series serialize on the series lock.
func TestConcurrentAppendSameSeries(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Series("m", nil)
			for i := 0; i < 200; i++ {
				h.MustAppend(0, 1) // equal timestamps are in order
			}
		}()
	}
	wg.Wait()
	if pts := s.Window("m", nil, 0, 0); len(pts) != 800 {
		t.Fatalf("retained %d of 800 samples", len(pts))
	}
}
