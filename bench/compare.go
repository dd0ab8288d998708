package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is compare's judgement of one end-to-end metric on one workload.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's runs on the parent (a) and the change (b):
//
//   - a spread (interquartile, as a share of the median) wider than the
//     bound on either side cannot resolve a difference of the bound's
//     size, so the verdict is unresolved — unless every run of b reads
//     better than every run of a;
//   - otherwise b is worse when its median is worse than a's by more than
//     the bound, better when it is better by more than a's own spread (by
//     more than the bound when either side is a single run, which has no
//     spread), and the same in between.
func judge(a, b metricSummary, m metricSpec) verdict {
	if a.Median == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // positive delta = worse
	if m.Better == "higher" {
		sign = -1
	}
	allBetter := len(a.Values) > 0 && len(b.Values) > 0
	for _, x := range a.Values {
		for _, y := range b.Values {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	delta := sign * (b.Median - a.Median) / a.Median
	if a.IQRShare > m.Bound || b.IQRShare > m.Bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	gain := a.IQRShare
	if a.N < 2 || b.N < 2 {
		gain = m.Bound
	}
	switch {
	case delta > m.Bound:
		return verdictWorse
	case -delta > gain:
		return verdictBetter
	}
	return verdictSame
}

func readLedger(path string) (ledger, error) {
	var led ledger
	blob, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(blob, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// compareMain prints one row per workload × end-to-end metric the two
// result files share: both medians, the delta as a share of the first
// file's median (the base is always printed), the bound, and a verdict.
// It exits 1 when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json   (a = parent, b = change)")
		return 2
	}
	a, err := readLedger(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readLedger(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	describe := func(name string, e environment) {
		fmt.Printf("%s: commit %.12s, %s, GOMAXPROCS %d, %s, seed %d, %gs x%d\n",
			name, e.Commit, e.CPUModel, e.GoMaxProcs, e.GoVersion, e.Seed, e.Seconds, e.Repeat)
	}
	describe("a", a.Env)
	describe("b", b.Env)
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.GoMaxProcs != b.Env.GoMaxProcs ||
		a.Env.Seconds != b.Env.Seconds || a.Env.Scale != b.Env.Scale {
		fmt.Println("warning: the two files were measured under different conditions; timings are not comparable")
	}
	worse := 0
	fmt.Printf("\n%-20s %-20s %-5s %12s %12s %22s %6s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "delta (share of a)", "bound", "verdict")
	for _, name := range allWorkloads {
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			continue
		}
		if wa.Digest != wb.Digest {
			fmt.Printf("%-20s digest %.12s -> %.12s: the simulated outcome changed\n", name, wa.Digest, wb.Digest)
		}
		for _, m := range endToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma.Fallback || mb.Fallback || ma.N == 0 || mb.N == 0 {
				continue
			}
			v := judge(ma, mb, m)
			if v == verdictWorse {
				worse++
			}
			delta := "n/a"
			if ma.Median != 0 {
				delta = fmt.Sprintf("%+.1f%% of %.4g %s", 100*(mb.Median-ma.Median)/ma.Median, ma.Median, m.Unit)
			}
			fmt.Printf("%-20s %-20s %-5s %12.6g %12.6g %22s %6.2f  %s\n",
				name, m.Name, m.Unit, ma.Median, mb.Median, delta, m.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d row(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}
