package experiments

import (
	"fmt"
	"testing"
)

// The summary is the repo's own referee: every headline claim of the
// paper must hold in this reproduction.
func TestSummaryAllClaimsHold(t *testing.T) {
	res, err := RunSummary(SummaryOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Claims) < 9 {
		t.Fatalf("only %d claims graded", len(res.Claims))
	}
	for _, c := range res.Claims {
		if !c.Holds {
			t.Errorf("claim %s (%s): paper %q, measured %q — does not hold",
				c.ID, c.Claim, c.Paper, c.Measured)
		}
	}
	if len(res.Render()) != 1 {
		t.Fatal("Render should produce one table")
	}
}

// The referee grades the tables it prints: the savings claims carry the
// savings of the elasticity and Fig. 8 runs at the summary's own seed.
func TestSummaryGradesThePrintedTables(t *testing.T) {
	const seed = 1
	res, err := RunSummary(SummaryOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]string{}
	for _, c := range res.Claims {
		measured[c.ID] = c.Measured
	}
	want := map[string]string{}
	for id, dir := range map[string]Scenario{"tab2-savings": ScaleUp, "tab3-savings": ScaleDown} {
		r, err := RunElasticity(dir, ElasticityOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = fmt.Sprintf("%.1f%% (vs observed-rate DRS)", 100*r.Savings("DRS(observed)"))
	}
	fig8, err := RunFig8(Fig8Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want["fig8-parallelism"] = fmt.Sprintf("%.1f%%", 100*fig8.Savings(func(m Fig8Method) float64 { return float64(m.TotalParallelism) }))
	want["fig8-memory"] = fmt.Sprintf("%.1f%%", 100*fig8.Savings(func(m Fig8Method) float64 { return m.MemUsedMB }))
	for id, w := range want {
		if measured[id] != w {
			t.Errorf("%s: summary measured %q, the printed table says %q", id, measured[id], w)
		}
	}
}
