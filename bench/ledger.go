package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// ledgerConfig is a full run: every selected workload, both passes,
// Repeat times.
type ledgerConfig struct {
	Workloads []string
	Seed      uint64
	Seconds   float64
	Scale     float64
	Repeat    int
	Traced    bool
	OutDir    string
	Out       string
}

// environment is captured into every result file: numbers from different
// boxes or commits must never be compared by accident.
type environment struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Repeat     int     `json:"repeat"`
	Time       string  `json:"time"`
}

func captureEnvironment(cfg ledgerConfig) environment {
	env := environment{
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale, Repeat: cfg.Repeat,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// metricSummary is one metric of one workload across the repeats.
type metricSummary struct {
	Unit string `json:"unit"`
	spread
	// Samples is the per-run sample count behind a timing (0 for scalars).
	Samples  int       `json:"samples,omitempty"`
	Fallback bool      `json:"fallback,omitempty"`
	Values   []float64 `json:"values"`
}

// workloadLedger is one workload's row of the ledger.
type workloadLedger struct {
	Why          string `json:"why"`
	Ops          int    `json:"ops"`
	FailedOps    int    `json:"failed_ops"`
	Digest       string `json:"digest"`
	DigestsMatch bool   `json:"digests_match"`
	// TracedWallRatio is traced wall_s / untraced wall_s (medians). On the
	// fleet workloads it includes the traced pass's single worker, so it is
	// the cost of tracing plus the parallel speed-up forgone.
	TracedWallRatio float64                  `json:"traced_wall_ratio,omitempty"`
	EndToEnd        map[string]metricSummary `json:"end_to_end"`
	PerLayer        map[string]metricSummary `json:"per_layer,omitempty"`
}

// ledger is the result file of one `go run ./bench`.
type ledger struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadLedger `json:"workloads"`
	Failures  []string                  `json:"failures,omitempty"`
}

// childPass re-executes this binary for one pass, so every workload
// starts from a fresh heap, and reads its full result back.
func childPass(cfg passConfig, quiet bool) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	detail, err := os.CreateTemp(cfg.OutDir, "pass-*.json")
	if err != nil {
		return passResult{}, err
	}
	detail.Close()
	defer os.Remove(detail.Name())
	trace := "0"
	if cfg.Traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", cfg.Workload, "--seed", fmt.Sprint(cfg.Seed),
		"--seconds", fmt.Sprint(cfg.Seconds), "--scale", fmt.Sprint(cfg.Scale),
		"--trace", trace, "--outdir", cfg.OutDir, "--detail", detail.Name())
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	if !quiet {
		// Everything but the driver's result object, which is the last line.
		text := strings.TrimRight(stdout.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Println(text[:i])
		}
	}
	var res passResult
	blob, err := os.ReadFile(detail.Name())
	if err == nil {
		err = json.Unmarshal(blob, &res)
	}
	if err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s pass failed: %v", cfg.Workload, runErr)
		}
		return res, err
	}
	return res, nil
}

func ledgerMain(cfg ledgerConfig) int {
	for _, name := range cfg.Workloads {
		if _, ok := workloadByName(name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(allWorkloads, ", "))
			return 2
		}
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	led := ledger{Env: captureEnvironment(cfg), Workloads: map[string]workloadLedger{}}
	start := time.Now()
	for _, name := range cfg.Workloads {
		w, _ := workloadByName(name)
		row := workloadLedger{Why: w.Why, DigestsMatch: true,
			EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricSummary{}}
		values := map[bool]map[string][]float64{false: {}, true: {}}
		last := map[bool]passResult{}
		for r := 0; r < cfg.Repeat; r++ {
			for _, traced := range []bool{false, true} {
				if traced && !cfg.Traced {
					continue
				}
				res, err := childPass(passConfig{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds,
					Scale: cfg.Scale, Traced: traced, OutDir: cfg.OutDir}, cfg.Repeat > 1)
				if err != nil {
					led.Failures = append(led.Failures, err.Error())
					continue
				}
				for _, f := range res.Failures {
					led.Failures = append(led.Failures, name+": "+f)
				}
				if row.Digest == "" {
					row.Digest = res.Digest
				}
				if res.Digest != row.Digest {
					row.DigestsMatch = false
					led.Failures = append(led.Failures, fmt.Sprintf(
						"%s: digest %s (traced=%v, repeat %d) differs from %s: a simulated statistic changed between passes",
						name, res.Digest[:16], traced, r, row.Digest[:16]))
				}
				for k, d := range res.Metrics {
					values[traced][k] = append(values[traced][k], d.Value)
				}
				last[traced] = res
				if !traced {
					row.Ops, row.FailedOps = res.Ops, row.FailedOps+res.Failed
				}
			}
		}
		for _, m := range endToEnd {
			d := last[false].Metrics[m.Name]
			row.EndToEnd[m.Name] = metricSummary{Unit: m.Unit, spread: summarize(values[false][m.Name]),
				Samples: d.N, Fallback: d.Fallback, Values: values[false][m.Name]}
		}
		if cfg.Traced {
			for _, m := range perLayer {
				row.PerLayer[m.Name] = metricSummary{Unit: m.Unit, spread: summarize(values[true][m.Name]),
					Samples: last[true].Metrics[m.Name].N, Values: values[true][m.Name]}
			}
			if base := median(values[false]["wall_s"]); base > 0 {
				row.TracedWallRatio = median(values[true]["wall_s"]) / base
			}
		}
		led.Workloads[name] = row
		if cfg.Repeat > 1 {
			printSpreads(name, row)
		}
	}
	out := cfg.Out
	if out == "" {
		out = filepath.Join(cfg.OutDir, "ledger.json")
	}
	if err := writeJSON(out, led); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\n%d workload(s), %d repeat(s) in %.0fs; result file %s\n",
		len(cfg.Workloads), cfg.Repeat, time.Since(start).Seconds(), out)
	if len(led.Failures) > 0 {
		for _, f := range led.Failures {
			fmt.Printf("FAILED: %s\n", f)
		}
		return 1
	}
	return 0
}

// printSpreads prints -repeat K's aggregate: per metric the median, the
// quartiles and (max−min)/median, and how the spread sits against the
// metric's bound.
func printSpreads(name string, row workloadLedger) {
	fmt.Printf("\n== %s: %d repeats, digest %s, traced/untraced wall %.2f\n",
		name, row.EndToEnd["wall_s"].N, row.Digest[:min(16, len(row.Digest))], row.TracedWallRatio)
	fmt.Printf("  %-24s %-6s %12s %12s %12s %10s %8s\n", "end-to-end", "unit", "median", "q1", "q3", "range/med", "bound")
	for _, m := range endToEnd {
		s := row.EndToEnd[m.Name]
		if s.Fallback {
			continue
		}
		note := ""
		if s.RangeShare > m.Bound {
			note = "  spread exceeds bound"
		}
		fmt.Printf("  %-24s %-6s %12.6g %12.6g %12.6g %10.3f %8.2f%s\n",
			m.Name, s.Unit, s.Median, s.Q1, s.Q3, s.RangeShare, m.Bound, note)
	}
	if len(row.PerLayer) == 0 {
		return
	}
	fmt.Printf("  %-40s %-6s %12s %10s\n", "per-layer", "unit", "median", "range/med")
	for _, m := range perLayer {
		if s := row.PerLayer[m.Name]; s.Median != 0 {
			fmt.Printf("  %-40s %-6s %12.6g %10.3f\n", m.Name, s.Unit, s.Median, s.RangeShare)
		}
	}
}
