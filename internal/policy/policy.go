// Package policy is the registry of scaling-policy contenders: the
// paper's BO/transfer planner and the DS2/DRS baselines, each behind the
// core.Policy interface so one controller, one chaos profile, one
// trace/flight surface, and one SLO tracker drive them all. The
// tournament (internal/experiments) and the fleet's per-job policy
// builders resolve contenders by name through Build.
package policy

import (
	"fmt"
	"sort"

	"autrascale/internal/baselines/drs"
	"autrascale/internal/core"
	policydrs "autrascale/internal/policy/drs"
	policyds2 "autrascale/internal/policy/ds2"
	"autrascale/internal/trace"
	"autrascale/internal/transfer"
)

// Env is the per-job context a policy builder sees: the targets the job
// was admitted with plus the controller plumbing (tracer, shared model
// library, seed). Builders ignore fields their policy has no use for —
// DS2 never reads TargetLatencyMS, and only BO touches the library.
type Env struct {
	// TargetLatencyMS is the job's latency requirement l_t.
	TargetLatencyMS float64
	// Seed drives any stochastic choices (BO's optimizer).
	Seed uint64
	// MaxIterations bounds a policy's per-trigger planning loop; 0 takes
	// each policy's default.
	MaxIterations int
	// Library is the transfer-model library BO should adopt (nil: fresh).
	Library *transfer.ModelLibrary
	// Tracer threads through planning spans (nil disables).
	Tracer *trace.Tracer
}

// builders maps contender names to constructors.
var builders = map[string]func(Env) (core.Policy, error){
	"bo": func(env Env) (core.Policy, error) {
		return core.NewBOPolicy(core.BOConfig{
			TargetLatencyMS: env.TargetLatencyMS,
			MaxIterations:   env.MaxIterations,
			Seed:            env.Seed,
			Library:         env.Library,
			Tracer:          env.Tracer,
		})
	},
	"ds2": func(env Env) (core.Policy, error) {
		return policyds2.New(policyds2.Config{MaxIterations: env.MaxIterations}), nil
	},
	"ds2-online": func(env Env) (core.Policy, error) {
		return policyds2.New(policyds2.Config{Online: true}), nil
	},
	"drs-true": func(env Env) (core.Policy, error) {
		return policydrs.New(policydrs.Config{
			Variant:         drs.VariantTrueRate,
			TargetLatencyMS: env.TargetLatencyMS,
			MaxIterations:   env.MaxIterations,
		})
	},
	"drs-observed": func(env Env) (core.Policy, error) {
		return policydrs.New(policydrs.Config{
			Variant:         drs.VariantObservedRate,
			TargetLatencyMS: env.TargetLatencyMS,
			MaxIterations:   env.MaxIterations,
		})
	},
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

// Build constructs the named policy for the environment.
func Build(name string, env Env) (core.Policy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	return b(env)
}
