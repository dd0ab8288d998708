// Command flightctl analyzes flight-recorder journals offline — the
// read side of the journal that `autrascale -flight` and `metricsd
// /debug/flight` write (see docs/observability.md for the schema).
//
// Usage:
//
//	flightctl summary    [file]            journal shape: records, jobs, chains, kinds
//	flightctl attribute  [-job N] [-corr C] [-last K] [-json] [file]
//	                                       per-decision causal chains, rendered
//	flightctl diff       fileA fileB       first divergent record between two runs
//	flightctl slo-report [-json] [file]    ranked per-job burn-state audit
//
// A missing file argument (or "-") reads the journal from stdin, so
// `curl .../debug/flight | flightctl summary` works. diff exits 1 when
// the journals diverge, 0 when identical, 2 on usage or read errors, so
// a script can gate on two journals' determinism.
//
// Correlation ids are span ids minted from a process-global sequence
// and are the one worker-count-dependent artifact of a seeded run;
// diff canonicalizes them (dense ids in first-appearance order) before
// comparing, so two same-seed runs at different worker counts compare
// identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"autrascale/internal/audit"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "summary":
		err = runSummary(os.Args[2:], os.Stdout)
	case "attribute":
		err = runAttribute(os.Args[2:], os.Stdout)
	case "diff":
		var identical bool
		identical, err = runDiff(os.Args[2:], os.Stdout)
		if err == nil && !identical {
			os.Exit(1)
		}
	case "slo-report":
		err = runSLOReport(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "flightctl: unknown subcommand %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flightctl: %v\n", err)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  flightctl summary    [file]              journal shape at a glance
  flightctl attribute  [flags] [file]      explain each decision's causal chain
  flightctl diff       fileA fileB         first divergent record between runs
  flightctl slo-report [flags] [file]      ranked per-job burn-state audit

file defaults to stdin ("-" also reads stdin).
`)
}

// loadJournal reads and validates the journal named by args[0] (stdin
// when absent or "-").
func loadJournal(args []string) (*audit.Journal, error) {
	var r io.Reader = os.Stdin
	name := "stdin"
	if len(args) > 1 {
		return nil, fmt.Errorf("expected at most one journal file, got %d args", len(args))
	}
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, name = f, args[0]
	}
	j, err := audit.ReadJournal(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return j, nil
}

func runSummary(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	j, err := loadJournal(fs.Args())
	if err != nil {
		return err
	}
	s := j.Summarize()
	if *asJSON {
		return writeJSON(w, s)
	}
	_, err = io.WriteString(w, s.Render())
	return err
}

func runAttribute(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("attribute", flag.ExitOnError)
	job := fs.String("job", "", "only decisions of this job")
	corr := fs.Uint64("corr", 0, "only the chain with this correlation id")
	last := fs.Int("last", 0, "only the newest K decisions (after filtering)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	j, err := loadJournal(fs.Args())
	if err != nil {
		return err
	}
	atts := j.Attributions()
	filtered := atts[:0:0]
	for _, a := range atts {
		if *job != "" && a.Job != *job {
			continue
		}
		if *corr != 0 && a.Corr != *corr {
			continue
		}
		filtered = append(filtered, a)
	}
	if *last > 0 && len(filtered) > *last {
		filtered = filtered[len(filtered)-*last:]
	}
	if *asJSON {
		return writeJSON(w, filtered)
	}
	if len(filtered) == 0 {
		_, err := fmt.Fprintln(w, "no matching decision chains")
		return err
	}
	for _, a := range filtered {
		if _, err := io.WriteString(w, a.Render()); err != nil {
			return err
		}
	}
	return nil
}

func runDiff(args []string, w io.Writer) (identical bool, err error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff needs exactly two journal files, got %d", fs.NArg())
	}
	a, err := loadJournal(fs.Args()[:1])
	if err != nil {
		return false, err
	}
	b, err := loadJournal(fs.Args()[1:])
	if err != nil {
		return false, err
	}
	res := audit.Diff(a, b)
	if *asJSON {
		return res.Identical, writeJSON(w, res)
	}
	_, err = io.WriteString(w, res.Render())
	return res.Identical, err
}

func runSLOReport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("slo-report", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	j, err := loadJournal(fs.Args())
	if err != nil {
		return err
	}
	rep := audit.SLOAudit(j)
	if *asJSON {
		return writeJSON(w, rep)
	}
	_, err = io.WriteString(w, rep.Render())
	return err
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
