package core

import (
	"fmt"
	"strings"

	"autrascale/internal/dataflow"
)

// IterationReport explains one BO iteration: the posterior and
// acquisition value that made the optimizer pick the configuration, and
// the measured outcome that judged it against the Eq. 9 bound.
type IterationReport struct {
	Iter          int                        `json:"iter"`
	Par           dataflow.ParallelismVector `json:"par"`
	Score         float64                    `json:"score"`
	ProcLatencyMS float64                    `json:"proc_latency_ms"`
	LatencyMet    bool                       `json:"latency_met"`
	// Eq9Margin is Score − threshold: ≥ 0 with LatencyMet terminates
	// Algorithm 1 (Eq. 9).
	Eq9Margin float64 `json:"eq9_margin"`
	// PosteriorMean/Std are the GP posterior at Par when it was
	// suggested; AcqValue is the acquisition value it won with.
	PosteriorMean float64 `json:"posterior_mean"`
	PosteriorStd  float64 `json:"posterior_std"`
	AcqValue      float64 `json:"acq_value"`
	// Acquisition names the acquisition function ("ei", "mean");
	// Selection the optimizer's selection path ("acq-max",
	// "exploit-mean", "fallback-mean").
	Acquisition string `json:"acquisition,omitempty"`
	Selection   string `json:"selection,omitempty"`
	// Terminated reports whether this iteration fired Eq. 9.
	Terminated bool `json:"terminated"`
}

// DecisionReport is the full record of one controller decision — the
// paper's Analyze+Plan stages made inspectable. metricsd serves these at
// /debug/decisions; `autrascale -explain` renders them with Explain.
type DecisionReport struct {
	TimeSec float64    `json:"time_sec"`
	Action  ActionKind `json:"action"`
	Reason  string     `json:"reason"`
	RateRPS float64    `json:"rate_rps"`
	// Degraded marks a decision aborted by a failed/timed-out rescale:
	// the controller kept the last-known-good configuration (Chosen)
	// and re-plans on the next policy tick.
	Degraded bool `json:"degraded,omitempty"`

	// Throughput-optimization stage (Eq. 3 iteration + history review).
	Base               dataflow.ParallelismVector `json:"base,omitempty"`
	ThroughputIters    int                        `json:"throughput_iters,omitempty"`
	ReachedTarget      bool                       `json:"reached_target,omitempty"`
	TerminatedByRepeat bool                       `json:"terminated_by_repeat,omitempty"`

	// Optimization outcome (Algorithm 1 or 2).
	Chosen        dataflow.ParallelismVector `json:"chosen"`
	Score         float64                    `json:"score"`
	Threshold     float64                    `json:"eq9_threshold"`
	Margin        float64                    `json:"eq9_margin"`
	LatencyMS     float64                    `json:"latency_ms"`
	LatencyMet    bool                       `json:"latency_met"`
	Met           bool                       `json:"met"`
	Exhausted     bool                       `json:"space_exhausted,omitempty"`
	Iterations    int                        `json:"bo_iterations"`
	BootstrapRuns int                        `json:"bootstrap_runs"`
	Trials        int                        `json:"trials"`
	Iters         []IterationReport          `json:"iteration_log,omitempty"`

	// Transfer (Algorithm 2) specifics; zero when transfer did not fire.
	TransferSourceRate float64   `json:"transfer_source_rate,omitempty"`
	TransferDistance   float64   `json:"transfer_distance,omitempty"`
	LibraryRates       []float64 `json:"library_rates,omitempty"`
	RealRuns           int       `json:"real_runs,omitempty"`
	EstimatedSamples   int       `json:"estimated_samples,omitempty"`
	SwitchedToA1       bool      `json:"switched_to_a1,omitempty"`
}

// FillFromAlgorithm1 copies the Algorithm 1/2 shared outcome into the
// report (Algorithm2Result embeds Algorithm1Result, so both use it).
func (r *DecisionReport) FillFromAlgorithm1(res *Algorithm1Result) {
	r.Chosen = res.Best.Par.Clone()
	r.Score = res.Best.Score
	r.Threshold = res.Threshold
	r.Margin = res.Best.Score - res.Threshold
	r.LatencyMS = res.Best.ProcLatencyMS
	r.LatencyMet = res.Best.LatencyMet
	r.Met = res.Met
	r.Exhausted = res.Exhausted
	r.Iterations = res.Iterations
	r.BootstrapRuns = res.BootstrapRuns
	r.Trials = len(res.Trials)
	r.Iters = append([]IterationReport(nil), res.Iters...)
}

// Explain renders the "why this configuration" report the -explain flag
// prints after each replan.
func (r DecisionReport) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision @ t=%.0fs — %s\n", r.TimeSec, r.Action)
	fmt.Fprintf(&b, "  trigger: %s\n", r.Reason)
	if r.RateRPS > 0 {
		fmt.Fprintf(&b, "  input rate: %.0f records/s\n", r.RateRPS)
	}
	if r.Degraded {
		fmt.Fprintf(&b, "  DEGRADED: kept last-known-good %v; re-planning next tick\n", r.Chosen)
		return b.String()
	}
	if r.Base != nil {
		fmt.Fprintf(&b, "  throughput stage (Eq. 3): base k' = %v after %d iteration(s)",
			r.Base, r.ThroughputIters)
		switch {
		case r.TerminatedByRepeat:
			b.WriteString(" (stopped: repeated recommendation)")
		case r.ReachedTarget:
			b.WriteString(" (input rate sustained)")
		}
		b.WriteByte('\n')
	}
	if r.Action == ActionAlgorithm2 {
		fmt.Fprintf(&b, "  transfer: reused model trained at %.0f records/s (Δrate %.0f); %d estimated sample(s), %d real run(s)",
			r.TransferSourceRate, r.TransferDistance, r.EstimatedSamples, r.RealRuns)
		if r.SwitchedToA1 {
			b.WriteString("; switched to Algorithm 1")
		}
		b.WriteByte('\n')
		if len(r.LibraryRates) > 0 {
			fmt.Fprintf(&b, "  model library rates: %v\n", r.LibraryRates)
		}
	}
	if r.Chosen != nil {
		fmt.Fprintf(&b, "  chosen: %v (total %d slots) — score F = %.3f vs Eq. 9 bound %.3f (margin %+.3f)\n",
			r.Chosen, r.Chosen.Total(), r.Score, r.Threshold, r.Margin)
		fmt.Fprintf(&b, "  QoS: latency %.0f ms (met=%v)\n", r.LatencyMS, r.LatencyMet)
		term := "budget exhausted before Eq. 9 fired"
		switch {
		case r.Met:
			term = "Eq. 9 satisfied (latency met, score above bound)"
		case r.Exhausted:
			term = "space-exhausted: every configuration was tried before Eq. 9 fired"
		}
		fmt.Fprintf(&b, "  search: %d bootstrap run(s) + %d BO iteration(s); %s\n",
			r.BootstrapRuns, r.Iterations, term)
	}
	for _, it := range r.Iters {
		fmt.Fprintf(&b, "    iter %2d: %v  score %.3f  margin %+.3f  lat %.0fms(met=%v)  acq=%s/%s μ=%.3f σ=%.3f a=%.4f",
			it.Iter, it.Par, it.Score, it.Eq9Margin, it.ProcLatencyMS, it.LatencyMet,
			it.Acquisition, it.Selection, it.PosteriorMean, it.PosteriorStd, it.AcqValue)
		if it.Terminated {
			b.WriteString("  ← terminated")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
