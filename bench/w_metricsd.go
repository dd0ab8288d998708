package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"autrascale/internal/persist"
	"autrascale/internal/stat"
)

const (
	httpRatePerSec   = 50
	httpConnections  = 2 // = nproc on the reference box
	httpDeadline     = 2 * time.Second
	httpJobs         = 32
	httpReadySec     = 3600 // past every job's initial planning session
	lateLimitMs      = 20.0
	snapshotEverySec = 5
)

// request is one HTTP call of the schedule.
type request struct {
	route  string // metric suffix: metrics, status, ..., snapshot_get
	method string
	path   string
	body   string
}

// slot is one scheduled send: a single request, or an admin write cycle
// whose three requests must reach the daemon in order and so run back to
// back on one connection.
type slot struct {
	due  time.Duration
	reqs []request
}

// sample is one completed request.
type sample struct {
	route   string
	latency time.Duration // from the scheduled send time (cycle followers: from their own send)
	late    time.Duration // how far the generator itself ran behind
	bytes   int
	status  int
	err     error
	body    []byte // kept for /metrics and the snapshot download only
}

// routeMix is the traffic mix in percent; the remaining 10% are admin
// write cycles.
var routeMix = []struct {
	pct int
	req request
}{
	{30, request{"metrics", "GET", "/metrics", ""}},
	{15, request{"status", "GET", "/status", ""}},
	{10, request{"health", "GET", "/debug/health", ""}},
	{10, request{"fleet", "GET", "/debug/fleet?limit=50", ""}},
	{10, request{"flight", "GET", "/debug/flight?n=200", ""}},
	{10, request{"jobs_get", "GET", "/api/v1/jobs", ""}},
	{5, request{"library", "GET", "/api/v1/library", ""}},
}

// buildSchedule derives the seeded open-loop schedule: one slot every
// 1/rate seconds for the run length, a snapshot POST every 5 s, and a
// final snapshot download. The seed shuffles the order; the mix itself is
// exact (every hundred slots hold 30 scrapes, 15 status reads, ...), so two
// seeds differ in when requests collide with rounds, not in how much work
// they ask for. Admin cycles retire the oldest live job and submit a
// replacement, so the fleet stays at its size.
func buildSchedule(seed uint64, seconds float64, jobs int) []slot {
	rng := stat.NewRNG(seed)
	live := make([]string, jobs)
	for i := range live {
		live[i] = fmt.Sprintf("wordcount-%02d", i+1)
	}
	n := int(seconds * httpRatePerSec)
	picks := make([]int, n) // percent points: routeMix below 90, admin cycles above
	for i := range picks {
		picks[i] = i % 100
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		picks[i], picks[j] = picks[j], picks[i]
	}
	period := time.Second / httpRatePerSec
	slots := make([]slot, 0, n+1)
	for i, pick := range picks {
		s := slot{due: time.Duration(i) * period}
		switch {
		case i > 0 && i%(snapshotEverySec*httpRatePerSec) == 0:
			s.reqs = []request{{"snapshot_post", "POST", "/api/v1/snapshot", ""}}
		case pick >= 90:
			victim, fresh := live[0], fmt.Sprintf("bench-%04d", i)
			live = append(live[1:], fresh)
			rate := 300e3 + 100e3*rng.Float64()
			s.reqs = []request{
				{"drain", "POST", "/api/v1/jobs/drain", fmt.Sprintf(`{"name":%q}`, victim)},
				{"remove", "POST", "/api/v1/jobs/remove", fmt.Sprintf(`{"name":%q}`, victim)},
				{"jobs_post", "POST", "/api/v1/jobs", fmt.Sprintf(`{"name":%q,"workload":"wordcount","rate_rps":%.0f}`, fresh, rate)},
			}
		default:
			for _, m := range routeMix {
				if pick -= m.pct; pick < 0 {
					s.reqs = []request{m.req}
					break
				}
			}
		}
		slots = append(slots, s)
	}
	return append(slots, slot{due: time.Duration(n) * period,
		reqs: []request{{"snapshot_get", "GET", "/api/v1/snapshot", ""}}})
}

// runSchedule is the open-loop generator: the connections' workers take
// slots in order, sleep until each is due, and send. A slow daemon delays
// later slots and that wait is charged to their latency (measured from
// the due time); late is only the generator's own lag — how long after a
// slot was due and a connection free the request actually left.
func runSchedule(e *env, base string, slots []slot) []sample {
	var (
		mu      sync.Mutex
		next    int
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < httpConnections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   httpDeadline,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for {
				free := time.Since(start)
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(slots) {
					return
				}
				s := slots[i]
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				for k, req := range s.reqs {
					out := send(client, base, req)
					out.latency = time.Since(start) - s.due
					if k > 0 {
						out.latency = time.Since(start) - sent
					} else {
						out.late = sent - max(s.due, free)
					}
					sent = time.Since(start)
					if e.rec != nil {
						end := int64(time.Since(e.rec.epoch))
						e.rec.add(span{Name: "http." + req.route, Start: end - int64(out.latency), End: end,
							Parent: -1, Run: i, Value: float64(out.bytes)})
					}
					mu.Lock()
					samples = append(samples, out)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// send performs one request and reads the whole response.
func send(client *http.Client, base string, req request) sample {
	out := sample{route: req.route}
	var body io.Reader
	if req.body != "" {
		body = strings.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, base+req.path, body)
	if err != nil {
		out.err = err
		return out
	}
	resp, err := client.Do(hr)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	if req.route == "metrics" || req.route == "snapshot_get" {
		out.body, out.err = io.ReadAll(resp.Body)
		out.bytes = len(out.body)
		return out
	}
	n, err := io.Copy(io.Discard, resp.Body)
	out.bytes, out.err = int(n), err
	return out
}

// runMetricsdHTTP drives the real daemon over HTTP: the only user-facing
// latency in the system. Handlers that take the fleet lock wait out whole
// rounds, and admin writes run beside scrapes.
func runMetricsdHTTP(e *env) error {
	// The daemon sleeps a simulated second per millisecond and the schedule
	// is fixed, so set-up and the region's wall follow the clock, not the CPU.
	e.clockBound = map[string]bool{"setup_s": true, "wall_s": true}
	bin, err := buildMetricsd(e.tmp)
	if err != nil {
		return err
	}
	var d *daemon
	defer func() {
		if d != nil {
			if err := d.stop(); err != nil {
				e.fail("%v", err)
			}
		}
	}()
	if err := e.setup(1, func() (err error) {
		d, err = startMetricsd(bin, httpReadySec,
			"-jobs", fmt.Sprint(e.jobs(httpJobs)), "-tick-interval", "1ms",
			"-seed", fmt.Sprint(e.derive("fleet", 0)),
			"-snapshot", e.tmp+"/metricsd.snapshot.json", "-checkpoint-every", "20")
		return
	}); err != nil {
		return err
	}
	slots := buildSchedule(e.derive("schedule", 0), e.cfg.Seconds, e.jobs(httpJobs))
	probe := &http.Client{Timeout: httpDeadline}
	simStart, err := d.nowSec(probe)
	if err != nil {
		return err
	}

	// The daemon's resident set is sampled through the run.
	var rssMB []float64
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				rssMB = append(rssMB, d.rssMB())
			}
		}
	}()
	e.beginRegion()
	samples := runSchedule(e, d.base, slots)
	e.endRegion()
	close(stopRSS)
	<-rssDone

	simEnd, err := d.nowSec(probe)
	if err != nil {
		e.fail("daemon stopped answering after the run: %v\n%s", err, d.stderr)
	}
	rss := median(rssMB)
	if err := d.stop(); err != nil {
		e.fail("%v", err)
	}
	d = nil

	// Checks: expected status on every route, valid /metrics text, a
	// snapshot that decodes.
	byRoute := map[string][]float64{}
	var all, lateNs, lockReads []float64
	var metricsBody, snapshotBody []byte
	served := 0
	for _, s := range samples {
		served += s.bytes
		ok := s.err == nil && s.status == http.StatusOK
		e.op(ok)
		if !ok {
			e.fail("%s: status %d, error %v", s.route, s.status, s.err)
		}
		ns := float64(s.latency)
		byRoute[s.route] = append(byRoute[s.route], ns)
		all = append(all, ns)
		lateNs = append(lateNs, float64(s.late))
		switch s.route {
		case "status", "health", "fleet", "jobs_get", "library":
			lockReads = append(lockReads, ns)
		case "metrics":
			metricsBody = s.body
		case "snapshot_get":
			snapshotBody = s.body
		}
	}
	if n, err := checkPromText(metricsBody); err != nil || n == 0 {
		e.fail("/metrics is not Prometheus text (%d samples): %v", n, err)
	}
	if st, err := persist.Decode(bytes.NewReader(snapshotBody)); err != nil {
		e.fail("downloaded snapshot does not decode: %v", err)
	} else if len(st.Jobs) != e.jobs(httpJobs) {
		e.fail("downloaded snapshot holds %d jobs, want %d", len(st.Jobs), e.jobs(httpJobs))
	}
	if latePct, lateP, _ := highestPercentile(lateNs, 100); lateP/1e6 > lateLimitMs {
		e.fail("the load generator ran %.1f ms late at p%g (limit %g ms): the run is invalid", lateP/1e6, latePct, lateLimitMs)
	}
	for i, s := range slots {
		e.digestf("%d %v %v", i, s.due, s.reqs)
	}

	e.putDur("http_p50_ms", "p50", all)
	e.putDur("bench.http_p95_ms", "p95", all)
	e.putDur("scrape_ms", "p50", byRoute["metrics"])
	for route, ns := range byRoute {
		e.putDur("metricsd.route."+route+"_p50_ms", "p50", ns)
	}
	// The fleet-lock wait shows in the tail of the reads that take the
	// lock; pooled, they have enough samples for a p90 at 6 s (a p95 from
	// 8 s up).
	e.putTail("metricsd.status_p95_ms", 95, lockReads)
	e.putTail("loadgen.late_p99_ms", 99, lateNs)
	e.put("metricsd.metrics_bytes", float64(len(metricsBody)))
	e.put("metricsd.rss_mb", rss)
	// Memory a user of the daemon sees is the daemon's, not the load
	// generator's. Its heap cannot be read from outside, so live_heap_mb is
	// its resident set (the median over the run, which smooths the
	// collector's sawtooth) and alloc_mb the response bytes it produced.
	e.put("alloc_mb", float64(served)/(1<<20))
	e.put("live_heap_mb", rss)
	e.put("metricsd.sim_s_per_wall_s", (simEnd-simStart)/e.value("wall_s"))
	return nil
}
