// Command experiments reproduces the paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	experiments [-seed N] [ids...]
//
// where ids are any of: fig1 fig2 fig5 tab2 tab3 fig6 fig7 fig8 tab4
// ablation summary tournament all
// (fig6/fig7 are views over the same runs as tab2/tab3, so requesting
// them re-runs the elasticity experiments). With no ids, "all" runs.
//
// The tournament id runs the policy×schedule×chaos grid; its axes are
// subset with -policies/-schedules/-chaos (comma-separated, empty =
// all) and sized with -duration/-workers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"autrascale/internal/experiments"
)

// splitList parses a comma-separated flag value ("" → nil).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the experiments args select, writes their tables (or
// JSON) to stdout and errors to stderr, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed for all experiments")
	asJSON := fs.Bool("json", false, "emit raw experiment results as JSON instead of tables")
	policies := fs.String("policies", "", "tournament: comma-separated policy names (empty: all registered)")
	schedules := fs.String("schedules", "", "tournament: comma-separated schedule names (empty: all)")
	chaosAxis := fs.String("chaos", "", "tournament: comma-separated chaos profiles (empty: all)")
	duration := fs.Float64("duration", 0, "tournament: simulated seconds per cell (0: default)")
	workers := fs.Int("workers", 1, "tournament: parallel cell runners")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: experiments [-seed N] [fig1 fig2 fig5 tab2 tab3 fig6 fig7 fig8 tab4 ablation summary tournament | all]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[strings.ToLower(id)] = true
	}
	selected := func(ids ...string) bool {
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return want["all"]
	}

	// The experiments in output order; each runs when any of its ids is
	// asked for, and reports errors under the first.
	type experiment struct {
		ids []string
		run func() (experiments.Renderable, error)
	}
	elasticity := func(s experiments.Scenario) func() (experiments.Renderable, error) {
		return func() (experiments.Renderable, error) {
			return experiments.RunElasticity(s, experiments.ElasticityOptions{Seed: *seed})
		}
	}
	all := []experiment{
		{[]string{"fig1"}, func() (experiments.Renderable, error) {
			return experiments.RunFig1(experiments.Fig1Options{Seed: *seed})
		}},
		{[]string{"fig2"}, func() (experiments.Renderable, error) {
			return experiments.RunFig2(experiments.Fig2Options{Seed: *seed})
		}},
		{[]string{"fig5"}, func() (experiments.Renderable, error) {
			return experiments.RunFig5(experiments.Fig5Options{Seed: *seed})
		}},
		{[]string{"tab2", "fig6", "fig7"}, elasticity(experiments.ScaleUp)},
		{[]string{"tab3", "fig6", "fig7"}, elasticity(experiments.ScaleDown)},
		{[]string{"fig8"}, func() (experiments.Renderable, error) {
			return experiments.RunFig8(experiments.Fig8Options{Seed: *seed})
		}},
		{[]string{"ablation"}, func() (experiments.Renderable, error) {
			return experiments.RunAblation(experiments.AblationOptions{Seed: *seed})
		}},
		{[]string{"summary"}, func() (experiments.Renderable, error) {
			return experiments.RunSummary(experiments.SummaryOptions{Seed: *seed})
		}},
		{[]string{"tournament"}, func() (experiments.Renderable, error) {
			res, err := experiments.RunTournament(experiments.TournamentOptions{
				Seed:        *seed,
				Policies:    splitList(*policies),
				Schedules:   splitList(*schedules),
				Chaos:       splitList(*chaosAxis),
				DurationSec: *duration,
				Workers:     *workers,
			})
			if err != nil {
				return nil, err
			}
			// A cell whose controller died is a gate failure, not a
			// footnote: TestTournamentGate must go red on it.
			for _, c := range res.Cells {
				if c.Err != "" {
					return nil, fmt.Errorf("cell %s/%s/%s: %s", c.Policy, c.Schedule, c.Chaos, c.Err)
				}
			}
			return res, nil
		}},
		{[]string{"tab4"}, func() (experiments.Renderable, error) {
			return experiments.RunTable4(experiments.Table4Options{Seed: *seed})
		}},
	}

	ran := 0
	for _, e := range all {
		if !selected(e.ids...) {
			continue
		}
		res, err := e.run()
		if err == nil {
			err = show(stdout, res, *asJSON)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ids[0], err)
			return 1
		}
		ran++
	}
	if ran == 0 {
		fs.Usage()
		return 2
	}
	return 0
}

// show writes one experiment's result: its tables, or its raw result as
// indented JSON.
func show(w io.Writer, r experiments.Renderable, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	for _, t := range r.Render() {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}
