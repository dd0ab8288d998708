package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"autrascale/internal/dataflow"
)

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
	// Trials counts the plan's windows outside Eq. 3 (ds2-online: its one
	// shot, which the next monitor window judges) and Windows all of
	// them; Planned counts them off the plan's trial log.
	Trials  int `json:"trials"`
	Windows int `json:"windows"`
	// Iters are the plan's PhaseBO trials, one per BO iteration. Entry i
	// is iteration i+1, its Eq. 9 margin is Score − Threshold, and it fired
	// Eq. 9 when it is the last and the session met (see MarshalJSON).
	Iters []Trial `json:"iteration_log,omitempty"`

	// Transfer (Algorithm 2) specifics; zero when transfer did not fire.
	TransferSourceRate float64   `json:"transfer_source_rate,omitempty"`
	TransferDistance   float64   `json:"transfer_distance,omitempty"`
	LibraryRates       []float64 `json:"library_rates,omitempty"`
	EstimatedSamples   int       `json:"estimated_samples,omitempty"`
	SwitchedToA1       bool      `json:"switched_to_a1,omitempty"`
}

// FillFromAlgorithm1 copies a planning session's outcome (Algorithm 1 or
// 2) into the report.
func (r *DecisionReport) FillFromAlgorithm1(res *Algorithm1Result) {
	r.Chosen = res.Best.Par.Clone()
	r.Score = res.Best.Score
	r.Threshold = res.Threshold
	r.Margin = res.Best.Score - res.Threshold
	r.LatencyMS = res.Best.ProcLatencyMS
	r.LatencyMet = res.Best.LatencyMet
	r.Met = res.Met
	r.Exhausted = res.Exhausted
	r.Iterations = res.Iterations()
	r.BootstrapRuns = res.BootstrapRuns()
	// The BO iterations end the session's log.
	r.Iters = append([]Trial(nil), res.Trials[len(res.Trials)-r.Iterations:]...)
	r.EstimatedSamples = res.EstimatedSamples
	r.SwitchedToA1 = res.SwitchedToA1
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
			r.TransferSourceRate, r.TransferDistance, r.EstimatedSamples, r.Trials)
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
	for i, it := range r.Iters {
		fmt.Fprintf(&b, "    iter %2d: %v  score %.3f  margin %+.3f  lat %.0fms(met=%v)  acq=%s/%s μ=%.3f σ=%.3f a=%.4f",
			i+1, it.Par, it.Score, it.Score-r.Threshold, it.ProcLatencyMS, it.LatencyMet,
			it.Suggestion.Acquisition, it.Suggestion.Reason, it.Suggestion.Mean, it.Suggestion.Std, it.Suggestion.AcqValue)
		if r.Met && i == len(r.Iters)-1 {
			b.WriteString("  ← terminated")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// iterationJSON is the wire shape of one iteration_log entry: its
// trial, numbered, with its Eq. 9 margin and termination.
type iterationJSON struct {
	Iter          int                        `json:"iter"`
	Par           dataflow.ParallelismVector `json:"par"`
	Score         float64                    `json:"score"`
	ProcLatencyMS float64                    `json:"proc_latency_ms"`
	LatencyMet    bool                       `json:"latency_met"`
	Eq9Margin     float64                    `json:"eq9_margin"`
	PosteriorMean float64                    `json:"posterior_mean"`
	PosteriorStd  float64                    `json:"posterior_std"`
	AcqValue      float64                    `json:"acq_value"`
	Acquisition   string                     `json:"acquisition,omitempty"`
	Selection     string                     `json:"selection,omitempty"`
	Terminated    bool                       `json:"terminated"`
}

// MarshalJSON writes the report with its iteration log in the wire
// shape of iterationJSON.
func (r DecisionReport) MarshalJSON() ([]byte, error) {
	type report DecisionReport // without this method
	out := struct {
		report
		Iters []iterationJSON `json:"iteration_log,omitempty"`
	}{report: report(r)}
	for i, tr := range r.Iters {
		st := tr.Suggestion
		out.Iters = append(out.Iters, iterationJSON{
			Iter: i + 1, Par: tr.Par, Score: tr.Score, ProcLatencyMS: tr.ProcLatencyMS,
			LatencyMet: tr.LatencyMet, Eq9Margin: tr.Score - r.Threshold,
			PosteriorMean: st.Mean, PosteriorStd: st.Std, AcqValue: st.AcqValue,
			Acquisition: st.Acquisition, Selection: st.Reason,
			Terminated: r.Met && i == len(r.Iters)-1,
		})
	}
	return json.Marshal(out)
}
