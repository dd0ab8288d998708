// Package policy is the registry of scaling-policy contenders: the
// paper's BO/transfer planner and the DS2/DRS baselines, each behind the
// core.Policy interface so one controller, one chaos profile, one
// trace/flight surface, and one SLO tracker drive them all. Everything
// that turns a contender's name into a policy — the tournament, the admin
// API, a snapshot restore — resolves it through Lookup; the builder it
// returns is assignable to fleet.JobSpec.Policy as is.
package policy

import (
	"fmt"
	"sort"

	"autrascale/internal/core"
	"autrascale/internal/policy/drs"
	"autrascale/internal/policy/ds2"
)

// Env is the planner environment a builder sees (core.PolicyEnv): the
// targets the job was admitted with plus the controller plumbing.
type Env = core.PolicyEnv

// builders maps contender names to constructors.
var builders = map[string]func(Env) (core.Policy, error){
	"bo": func(env Env) (core.Policy, error) {
		return core.NewBOPolicy(env)
	},
	"ds2": func(env Env) (core.Policy, error) {
		return ds2.New(ds2.Config{}), nil
	},
	"ds2-online": func(env Env) (core.Policy, error) {
		return ds2.New(ds2.Config{Online: true}), nil
	},
	"drs-true":     drsBuilder(drs.VariantTrueRate),
	"drs-observed": drsBuilder(drs.VariantObservedRate),
}

func drsBuilder(v drs.Variant) func(Env) (core.Policy, error) {
	return func(env Env) (core.Policy, error) {
		return drs.New(drs.Config{
			Variant:         v,
			TargetLatencyMS: env.TargetLatencyMS,
		})
	}
}

// Names lists the registered contenders, sorted for stable iteration
// (tournament grids and docs enumerate in this order).
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a contender's name to its builder. An unknown name is
// the same error wherever it is typed — a tournament axis, an admin
// request, a snapshot.
func Lookup(name string) (func(Env) (core.Policy, error), error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have %v)", name, Names())
	}
	return b, nil
}

// Build constructs the named policy for the environment.
func Build(name string, env Env) (core.Policy, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return b(env)
}
