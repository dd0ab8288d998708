package fleet

import (
	"errors"
	"strings"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/flink"
	"autrascale/internal/policy/ds2"
)

// failingPolicy dies on its first plan with a non-rescale error — the
// quarantine-grade failure class.
type failingPolicy struct{}

func (failingPolicy) Name() string { return "failing" }
func (failingPolicy) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	return core.PlanResult{}, errors.New("policy exploded")
}

// Per-job policies: a fleet can mix the default BO planner with plug-in
// policies; the plug-in job's decisions carry ActionPolicy and both jobs
// keep running side by side.
func TestFleetPerJobPolicy(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "bo-job", 1500)); err != nil {
		t.Fatal(err)
	}
	ds2Job := testJob(t, "ds2-job", 1500)
	ds2Job.Policy = func(env PolicyEnv) (core.Policy, error) {
		return ds2.New(ds2.Config{Online: true}), nil
	}
	if err := f.Submit(ds2Job); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(3600)

	jobs, _ := f.JobsPage(0, 0)
	for _, j := range jobs {
		if j.State != StateRunning {
			t.Fatalf("job %s state = %v, want running (err=%q)", j.Name, j.State, j.Error)
		}
	}
	ds2Decisions, err := f.Decisions("ds2-job")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2Decisions) == 0 {
		t.Fatal("ds2 job planned nothing in an hour")
	}
	for _, d := range ds2Decisions {
		if d.Action != core.ActionPolicy {
			t.Fatalf("ds2 job decision action = %v, want %v", d.Action, core.ActionPolicy)
		}
		if !strings.Contains(d.Reason, "ds2-online") {
			t.Fatalf("ds2 job decision reason %q should name the policy", d.Reason)
		}
	}
	boDecisions, err := f.Decisions("bo-job")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range boDecisions {
		if d.Action == core.ActionPolicy {
			t.Fatal("BO job must keep the paper's action labels")
		}
	}
}

// A policy builder that fails rejects the submission outright — no
// half-admitted job, no capacity leak.
func TestFleetPolicyBuilderError(t *testing.T) {
	f, err := New(Config{TotalCores: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad := testJob(t, "bad-builder", 1500)
	bad.Policy = func(env PolicyEnv) (core.Policy, error) {
		return nil, errors.New("no such policy")
	}
	if err := f.Submit(bad); err == nil || !strings.Contains(err.Error(), "no such policy") {
		t.Fatalf("Submit = %v, want builder error", err)
	}
	if st := f.Snapshot(); st.UsedCores != 0 {
		t.Fatalf("UsedCores after rejected builder = %d, want 0", st.UsedCores)
	}
	// Capacity stays usable for a well-formed job under the same name.
	if err := f.Submit(testJob(t, "bad-builder", 1500)); err != nil {
		t.Fatalf("resubmit after builder failure: %v", err)
	}
}

// A plug-in policy that errors mid-flight quarantines its job at the
// round barrier while the rest of the fleet keeps running — the same
// degradation path the BO planner gets.
func TestFleetPolicyErrorQuarantines(t *testing.T) {
	f, err := New(Config{TotalCores: 128, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	doomed := testJob(t, "doomed", 1500)
	doomed.Policy = func(env PolicyEnv) (core.Policy, error) {
		return failingPolicy{}, nil
	}
	if err := f.Submit(doomed); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(testJob(t, "steady", 1500)); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(3600)

	jobs, _ := f.JobsPage(0, 0)
	byName := map[string]JobStatus{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	if byName["doomed"].State != StateQuarantined {
		t.Fatalf("doomed job state = %v, want quarantined", byName["doomed"].State)
	}
	if !strings.Contains(byName["doomed"].Error, "policy exploded") {
		t.Fatalf("quarantine error %q should surface the policy failure", byName["doomed"].Error)
	}
	if byName["steady"].State != StateRunning {
		t.Fatalf("steady job state = %v, want running", byName["steady"].State)
	}
	if byName["steady"].SimulatedSec < 3500 {
		t.Fatalf("steady job stalled at %.0fs", byName["steady"].SimulatedSec)
	}
}
