// Command bench is the repository's end-to-end performance ledger: seven
// seeded workloads, fifteen end-to-end metrics and a per-layer cost stack,
// measured from outside the program (see README.md).
//
//	go run ./bench                       every workload, both passes
//	go run ./bench -workloads a,b -repeat 5 -out ledger.json
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench compare a.json b.json
//
// The third form is one pass of one workload — what the PR driver runs
// and what the first two forms re-exec per workload, so one workload's
// heap never taxes the next. Its last line of standard output is the
// result object BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 6

// boolValue parses -trace as a flag that takes a value ("--trace 0"), which
// the flag package's own bool flags do not.
type boolValue bool

func (b *boolValue) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		one       = fs.String("workload", "", "run one pass of this workload and print its result object")
		list      = fs.String("workloads", "", "comma-separated workloads for a ledger run (default: all)")
		seed      = fs.Uint64("seed", 1, "derives every fleet seed, controller seed and route schedule")
		seconds   = fs.Float64("seconds", defaultSeconds, "size the fixed work for a timed region of about this long")
		scale     = fs.Float64("scale", 1, "multiply job counts (tests only)")
		repeat    = fs.Int("repeat", 1, "ledger run: repeat each workload this many times and report spreads")
		out       = fs.String("out", "", "ledger run: result file (default <outdir>/ledger.json)")
		outDir    = fs.String("outdir", defaultOutDir(), "directory for traces, digests and scratch files")
		detail    = fs.String("detail", "", "one-pass run: also write the full pass result to this file")
		traceFlag = boolValue(true)
	)
	fs.Var(&traceFlag, "trace", "one-pass run: 1 = traced pass (per-layer metrics), 0 = untraced (end-to-end); ledger run: false skips the traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -scale and -repeat must be positive")
		return 2
	}
	if *one != "" {
		return onePass(passConfig{
			Workload: *one, Seed: *seed, Seconds: *seconds, Scale: *scale,
			Traced: bool(traceFlag), OutDir: *outDir,
		}, *detail)
	}
	names := allWorkloads
	if *list != "" {
		names = strings.Split(*list, ",")
	}
	return ledgerMain(ledgerConfig{
		Workloads: names, Seed: *seed, Seconds: *seconds, Scale: *scale,
		Repeat: *repeat, Traced: bool(traceFlag), OutDir: *outDir, Out: *out,
	})
}

// defaultOutDir keeps outputs under the benchmark's own directory whether
// the command runs from the repository root or from bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// runPass measures one pass of one workload.
func runPass(cfg passConfig) (passResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return passResult{}, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(allWorkloads, ", "))
	}
	e, err := newEnv(cfg)
	if err != nil {
		return passResult{}, err
	}
	defer e.cleanup()
	start := time.Now()
	if err := w.run(e); err != nil {
		return passResult{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return e.finish(time.Since(start)), nil
}

// onePass runs a pass, prints every metric by name with its unit, and
// ends standard output with the driver's result object: the end-to-end
// metrics of an untraced pass, the per-layer metrics of a traced one.
func onePass(cfg passConfig, detailPath string) int {
	res, err := runPass(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if detailPath != "" {
		if err := writeJSON(detailPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	specs := endToEnd
	if cfg.Traced {
		specs = perLayer
	}
	printPass(res, specs)

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Ops, 1), Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, m := range specs {
		d := res.Metrics[m.Name]
		line.Metrics[m.Name] = driverMetric{Value: d.Value, Unit: d.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// printPass lists a pass's metrics in spec order.
func printPass(res passResult, specs []metricSpec) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s pass, seed %d, %gs): ops %d, failed_ops %d, digest %s, pass wall %.2fs\n",
		res.Workload, pass, res.Seed, res.Seconds, res.Ops, res.Failed, res.Digest[:16], res.WallS)
	for _, m := range specs {
		d := res.Metrics[m.Name]
		note := ""
		if d.N > 0 {
			note = fmt.Sprintf("  (n=%d)", d.N)
		}
		if d.Fallback {
			note += "  (does not apply: wall time)"
		}
		fmt.Printf("  %-40s %14.6g %-6s%s\n", m.Name, d.Value, d.Unit, note)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}
