package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autrascale/internal/kafka"
)

// The differential golden test: the paper's planner driven through the
// Policy interface explicitly (ControllerConfig.Policy set) must replay
// the SAME golden trace the nil-Policy default produces — the refactor's
// proof obligation. This test never writes the golden; only the default
// path blesses it, so a drift between the two construction paths cannot
// hide behind -update.
func TestGoldenTraceExplicitBOPolicy(t *testing.T) {
	sched := kafka.StepSchedule{Steps: []kafka.Step{
		{FromSec: 0, Rate: 1500},
		{FromSec: 1200, Rate: 2000},
	}}
	e := controllerEngine(t, sched)
	pol, err := NewBOPolicy(BOConfig{TargetLatencyMS: 160, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(e, ControllerConfig{TargetLatencyMS: 160, Seed: 7, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.policy != Policy(pol) {
		t.Fatal("controller should adopt the explicit policy")
	}
	if ctl.Library() != pol.Library() {
		t.Fatal("controller must adopt the explicit policy's model library")
	}
	if _, err := ctl.Run(10800); err != nil {
		t.Fatal(err)
	}
	got := goldenFromReports(ctl.Decisions())

	blob, err := os.ReadFile(filepath.Join("testdata", "ratechange_golden.json"))
	if err != nil {
		t.Fatalf("missing golden file (bless via the default-path test with -update): %v", err)
	}
	var want []goldenDecision
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("explicit-policy run produced %d decisions, golden has %d — the Policy plumbing changed behavior",
			len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("decision %d diverged between construction paths:\n explicit %s\n golden   %s", i, g, w)
		}
	}

	// Base() must keep flowing through the policy: after planning, the
	// throughput stage's k' is non-nil and matches the policy's view.
	if ctl.Base() == nil || !ctl.Base().Equal(pol.Base()) {
		t.Fatal("Controller.Base must delegate to the BO policy's base configuration")
	}
}
