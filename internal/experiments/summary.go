package experiments

import "fmt"

// PaperClaim is one headline number from the paper with our measurement.
type PaperClaim struct {
	ID       string
	Claim    string
	Paper    string
	Measured string
	// Holds reports whether the reproduction's shape target is met
	// (direction and rough magnitude, not the absolute number).
	Holds bool
}

// SummaryResult is the programmatic paper-vs-measured comparison that
// EXPERIMENTS.md records by hand: it re-runs the evaluation and grades
// every headline claim.
type SummaryResult struct {
	Claims []PaperClaim
}

// SummaryOptions parameterizes RunSummary.
type SummaryOptions struct {
	Seed uint64
}

// RunSummary executes the evaluation experiments and grades the paper's
// headline claims against the measurements. Every experiment runs at
// opts.Seed, so the grades are of exactly the tables `experiments -seed
// N` prints.
func RunSummary(opts SummaryOptions) (*SummaryResult, error) {
	res := &SummaryResult{}
	add := func(id, claim, paper, measured string, holds bool) {
		res.Claims = append(res.Claims, PaperClaim{
			ID: id, Claim: claim, Paper: paper, Measured: measured, Holds: holds,
		})
	}

	// Fig. 5 claims.
	fig5, err := RunFig5(Fig5Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	maxIters := 0
	var wcBase, yhBase string
	yahooCapped := false
	for _, w := range fig5.Workloads {
		if w.Iterations > maxIters {
			maxIters = w.Iterations
		}
		switch w.Name {
		case "wordcount":
			wcBase = w.Base.String()
		case "yahoo":
			yhBase = w.Base.String()
			yahooCapped = !w.ReachedTarget && w.TerminatedRepeat
		}
	}
	add("fig5-iters", "throughput optimizer converges within 4 iterations",
		"<= 4", fmt.Sprintf("%d", maxIters), maxIters <= 4)
	add("fig5-wordcount", "WordCount optimal parallelism at 350k rps",
		"(3, 4, 12, 10)", wcBase, wcBase == "(3, 4, 12, 10)")
	add("fig5-yahoo", "Yahoo capped by Redis; review picks p2",
		"(4, 2, 1, 1, 34), repeat-terminated",
		fmt.Sprintf("%s, repeat-terminated=%v", yhBase, yahooCapped),
		yhBase == "(4, 2, 1, 1, 34)" && yahooCapped)

	// Elasticity claims (Tables II/III, Figs. 6/7).
	up, err := RunElasticity(ScaleUp, ElasticityOptions{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	down, err := RunElasticity(ScaleDown, ElasticityOptions{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	upSav := up.Savings("DRS(observed)")
	downSav := down.Savings("DRS(observed)")
	add("tab2-savings", "scale-up resource saving vs DRS",
		"36.7%", fmt.Sprintf("%.1f%% (vs observed-rate DRS)", 100*upSav), upSav > 0.15)
	add("tab3-savings", "scale-down resource saving vs DRS",
		"66.6%", fmt.Sprintf("%.1f%% (vs observed-rate DRS)", 100*downSav), downSav > 0.4)
	add("tab23-ordering", "scale-down savings exceed scale-up savings",
		"66.6% > 36.7%", fmt.Sprintf("%.1f%% > %.1f%%", 100*downSav, 100*upSav), downSav > upSav)
	qosOK := true
	for _, r := range []*ElasticityResult{up, down} {
		for _, j := range r.Jobs {
			if m := j.Method("AuTraScale"); m == nil || !m.LatencyMet || !m.ThroughputMet {
				qosOK = false
			}
		}
	}
	add("fig6-qos", "AuTraScale meets both QoS targets in every elasticity test",
		"always", fmt.Sprintf("%v", qosOK), qosOK)

	// Fig. 8 claims.
	fig8, err := RunFig8(Fig8Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	parSav := fig8.Savings(func(m Fig8Method) float64 { return float64(m.TotalParallelism) })
	memSav := fig8.Savings(func(m Fig8Method) float64 { return m.MemUsedMB })
	add("fig8-parallelism", "rate-change parallelism saving vs DS2",
		"13.5%", fmt.Sprintf("%.1f%%", 100*parSav), parSav > 0)
	add("fig8-memory", "rate-change memory saving vs DS2",
		"6.2%", fmt.Sprintf("%.1f%%", 100*memSav), memSav > 0)

	// Table IV claim.
	tab4, err := RunTable4(Table4Options{Seed: opts.Seed, Repeats: 3})
	if err != nil {
		return nil, err
	}
	worst := 0.0
	for _, r := range tab4.Rows {
		if r.Alg1TrainSec > worst {
			worst = r.Alg1TrainSec
		}
		if r.Alg2Sec > worst {
			worst = r.Alg2Sec
		}
	}
	add("tab4-overhead", "algorithm overhead far below the policy interval",
		"<= 0.12 s at 10 operators", fmt.Sprintf("%.4f s worst", worst), worst < 1)

	return res, nil
}

// Holds reports whether every claim holds.
func (r *SummaryResult) Holds() bool {
	for _, c := range r.Claims {
		if !c.Holds {
			return false
		}
	}
	return true
}

// Render prints the claim table.
func (r *SummaryResult) Render() []Table {
	t := Table{
		Title:   "Reproduction summary — paper claims vs measured",
		Columns: []string{"id", "claim", "paper", "measured", "holds"},
	}
	for _, c := range r.Claims {
		t.AddRow(c.ID, c.Claim, c.Paper, c.Measured, c.Holds)
	}
	return []Table{t}
}
