package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// WriteExposition renders the latest sample of every series in the
// Prometheus text exposition format (the interface the paper's Monitor
// stage would expose to an external scraper). Metric names are sanitized
// to the Prometheus charset; tags become labels.
//
// Example output line:
//
//	taskmanager_job_task_trueProcessingRate{job="wc",operator="Count"} 29700 1234000
//
// A scrape walks the cached exposition order and appends each entry's
// pre-rendered `name{labels} ` prefix plus its current value to one
// pooled buffer, flushed to w in blocks: no per-line lookup, label
// formatting or allocation.
func (s *Store) WriteExposition(w io.Writer) error {
	bp := expoBufPool.Get().(*[]byte)
	e := expoWriter{w: w, buf: (*bp)[:0]}
	defer func() {
		*bp = e.buf[:0]
		expoBufPool.Put(bp)
	}()
	order := s.ordered()
	for _, sr := range order.series {
		last, ok := sr.Latest()
		if !ok {
			continue
		}
		e.buf = append(e.buf, sr.prefix...)
		e.buf = strconv.AppendFloat(e.buf, last.Value, 'g', -1, 64)
		e.buf = append(e.buf, ' ')
		e.buf = strconv.AppendInt(e.buf, int64(last.TimeSec*1000), 10)
		e.buf = append(e.buf, '\n')
		e.flushIfFull()
	}
	// Counters (as `name_total`) and histograms (Prometheus
	// `name_bucket{le=...}` / `_sum` / `_count` triplets) follow the
	// series gauges.
	for _, c := range order.counters {
		e.buf = append(e.buf, c.line...)
		e.buf = strconv.AppendFloat(e.buf, c.c.Value(), 'g', -1, 64)
		e.buf = append(e.buf, '\n')
		e.flushIfFull()
	}
	for _, h := range order.histograms {
		e.buf = h.appendExposition(e.buf)
		e.flushIfFull()
	}
	return e.flush()
}

// render fills in the exposition prefixes of the entries that joined
// since prev (the previous order, nil on the first build) was rendered,
// so resolving a handle never pays for text only a scrape needs. The
// caller holds the store's write lock and publishes o afterwards;
// scrapers read the prefixes only through a published order.
func (o *expositionOrder) render(prev *expositionOrder) {
	for _, sr := range o.series {
		if sr.prefix == "" {
			sr.prefix = sanitizeMetricName(sr.key.Name) + formatLabels(sr.key.Tags) + " "
		}
	}
	// Counter prefixes carry over from prev; both lists are sorted by key.
	var old []counterEntry
	if prev != nil {
		old = prev.counters
	}
	for i := range o.counters {
		e := &o.counters[i]
		for len(old) > 0 && keyLess(old[0].key, e.key) {
			old = old[1:]
		}
		if len(old) > 0 && old[0].key == e.key {
			e.line = old[0].line
		} else {
			e.line = sanitizeMetricName(e.key.Name) + "_total" + formatLabels(e.key.Tags) + " "
		}
	}
	for _, h := range o.histograms {
		if h.bucketLines != nil {
			continue
		}
		name, labels := sanitizeMetricName(h.key.Name), formatLabels(h.key.Tags)
		// `{tags,le="` or `{le="`: a bucket's label set up to its bound.
		leOpen := `{le="`
		if labels != "" {
			leOpen = labels[:len(labels)-1] + `,le="`
		}
		for _, bound := range h.bounds {
			h.bucketLines = append(h.bucketLines, name+"_bucket"+leOpen+formatBound(bound)+`"} `)
		}
		h.bucketLines = append(h.bucketLines, name+"_bucket"+leOpen+`+Inf"} `)
		h.sumLine = name + "_sum" + labels + " "
		h.countLine = name + "_count" + labels + " "
	}
}

// appendExposition renders the histogram's bucket, sum and count lines.
func (h *Histogram) appendExposition(buf []byte) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cumulative uint64
	for i, c := range h.counts {
		cumulative += c
		buf = append(buf, h.bucketLines[i]...)
		buf = strconv.AppendUint(buf, cumulative, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, h.sumLine...)
	buf = strconv.AppendFloat(buf, h.sum, 'g', -1, 64)
	buf = append(buf, '\n')
	buf = append(buf, h.countLine...)
	buf = strconv.AppendUint(buf, h.samples, 10)
	return append(buf, '\n')
}

// expoBlockBytes is how much rendered text a scrape buffers between
// writes to the scraper.
const expoBlockBytes = 32 << 10

var expoBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, expoBlockBytes+4096)
	return &b
}}

// expoWriter accumulates exposition text and hands it to w in blocks;
// after the first write error it drops everything and flush reports it.
type expoWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *expoWriter) flushIfFull() {
	if len(e.buf) >= expoBlockBytes {
		e.flush()
	}
}

func (e *expoWriter) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// formatBound renders a bucket upper bound the way Prometheus does
// (plain decimal, no exponent for the usual magnitudes).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// sanitizeMetricName maps a dotted metric path onto the Prometheus
// charset [a-zA-Z0-9_:].
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatLabels renders the canonical tag encoding as a Prometheus label
// set.
func formatLabels(encoded string) string {
	if encoded == "" {
		return ""
	}
	parts := strings.Split(encoded, ",")
	labels := make([]string, 0, len(parts))
	for _, p := range parts {
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 {
			continue
		}
		labels = append(labels, fmt.Sprintf("%s=%q", sanitizeMetricName(kv[0]), kv[1]))
	}
	if len(labels) == 0 {
		return ""
	}
	return "{" + strings.Join(labels, ",") + "}"
}
