package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// daemon is a running cmd/metricsd the harness built and owns. stop is
// safe on every exit path: it kills the process, waits for it, and reports
// whether it went away.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	done   chan error
}

// tailBuffer keeps the last max bytes written to it — the daemon's stderr,
// printed when something goes wrong.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// buildMetricsd compiles the real daemon from source into dir. The import
// path resolves from anywhere inside the module; outside a checkout (no
// go.mod above) the build fails and so does the benchmark.
func buildMetricsd(dir string) (string, error) {
	bin := filepath.Join(dir, "metricsd")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "autrascale/cmd/metricsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build cmd/metricsd: %v\n%s", err, out)
	}
	return abs, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

const (
	healthDeadline = 10 * time.Second
	readyDeadline  = 90 * time.Second
	stopDeadline   = 5 * time.Second
)

// startMetricsd launches the daemon on a free port and waits until it is
// live (/healthz) and past its initial planning (/status now_sec >=
// readySec). A port lost to a race between freePort and the daemon's bind
// is retried.
func startMetricsd(bin string, readySec float64, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			stderr: &tailBuffer{max: 64 << 10},
			done:   make(chan error, 1),
		}
		d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
		d.cmd.Stderr = d.stderr
		if err := d.cmd.Start(); err != nil {
			return nil, err
		}
		go func() { d.done <- d.cmd.Wait() }()
		if lastErr = d.waitReady(readySec); lastErr == nil {
			return d, nil
		}
		d.stop()
		lastErr = fmt.Errorf("%w\n--- metricsd stderr ---\n%s", lastErr, d.stderr)
		if !strings.Contains(d.stderr.String(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func (d *daemon) waitReady(readySec float64) error {
	client := &http.Client{Timeout: 2 * time.Second}
	poll := func(deadline time.Duration, what string, ok func() bool) error {
		until := time.Now().Add(deadline)
		for time.Now().Before(until) {
			select {
			case err := <-d.done:
				d.done <- err
				return fmt.Errorf("metricsd exited before %s: %v", what, err)
			default:
			}
			if ok() {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("metricsd not %s within %v", what, deadline)
	}
	if err := poll(healthDeadline, "live", func() bool {
		resp, err := client.Get(d.base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return err
	}
	return poll(readyDeadline, "ready", func() bool {
		now, err := d.nowSec(client)
		return err == nil && now >= readySec
	})
}

// nowSec reads the fleet clock off /status.
func (d *daemon) nowSec(client *http.Client) (float64, error) {
	resp, err := client.Get(d.base + "/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		NowSec float64 `json:"now_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.NowSec, nil
}

// rssMB reads the daemon's resident set from /proc.
func (d *daemon) rssMB() float64 {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(string(rest))[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop kills the daemon and waits for it; an error means it did not exit.
func (d *daemon) stop() error {
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Kill()
	select {
	case err := <-d.done:
		d.done <- err
		return nil
	case <-time.After(stopDeadline):
		return errors.New("metricsd did not exit within " + stopDeadline.String() + " of being killed")
	}
}
