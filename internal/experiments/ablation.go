package experiments

import (
	"fmt"
	"math"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/gp"
	"autrascale/internal/kafka"
	"autrascale/internal/workloads"
)

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: how much each AuTraScale ingredient contributes.
type AblationResult struct {
	Transfer []TransferAblationRow
	Metric   []MetricAblationRow
	Kernel   []KernelAblationRow
}

// TransferAblationRow compares strategies for reacting to a rate change
// on one workload: Algorithm 1 from scratch, Algorithm 2 transfer, and
// the rate-unified joint model (the paper's future work).
type TransferAblationRow struct {
	Workload  string
	Strategy  string
	RealRuns  int // configurations actually executed at the new rate
	FinalPar  dataflow.ParallelismVector
	Total     int
	LatencyMS float64
	Met       bool
}

// MetricAblationRow compares Eq. 3 sizing driven by the true vs the
// observed processing-rate metric from an over-provisioned start — the
// paper's motivation for instrumenting true rates.
type MetricAblationRow struct {
	Workload      string
	Metric        string
	Recommended   dataflow.ParallelismVector
	Total         int
	OptimalTotal  int
	OverProvision float64 // (total − optimal)/optimal
}

// KernelAblationRow compares GP kernel families on held-out prediction of
// a benefit surface gathered from real trials.
type KernelAblationRow struct {
	Kernel  string
	MeanAbs float64 // mean |error| on held-out trials
	MaxAbs  float64
}

// AblationOptions parameterizes RunAblation.
type AblationOptions struct {
	Seed uint64
}

// RunAblation executes all three ablations.
func RunAblation(opts AblationOptions) (*AblationResult, error) {
	res := &AblationResult{}
	if err := res.runTransferAblation(opts.Seed); err != nil {
		return nil, err
	}
	if err := res.runMetricAblation(opts.Seed); err != nil {
		return nil, err
	}
	if err := res.runKernelAblation(opts.Seed); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *AblationResult) runTransferAblation(seed uint64) error {
	spec := workloads.NexmarkQ11()
	oldRate, newRate := 80e3, spec.DefaultRateRPS

	// Pre-train at the old rate (shared by the transfer strategies).
	eOld, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: kafka.ConstantRate(oldRate), Seed: seed + 1})
	if err != nil {
		return err
	}
	trOld, err := core.OptimizeThroughput(eOld, core.ThroughputOptions{TargetRate: oldRate})
	if err != nil {
		return err
	}
	a1Old, err := core.RunAlgorithm1(eOld, trOld.Base, core.Algorithm1Config{
		TargetRate: oldRate, TargetLatencyMS: spec.TargetLatencyMS, Seed: seed + 2})
	if err != nil {
		return err
	}
	unified := newUnifiedModel(spec.Graph.NumOperators())
	if err := unified.observeTrials(a1Old.Trials, oldRate); err != nil {
		return err
	}

	newEngine := func(off uint64) (*flink.Engine, dataflow.ParallelismVector, error) {
		e, err := workloads.NewEngine(spec, workloads.EngineOptions{Seed: seed + off})
		if err != nil {
			return nil, nil, err
		}
		tr, err := core.OptimizeThroughput(e, core.ThroughputOptions{TargetRate: newRate})
		if err != nil {
			return nil, nil, err
		}
		return e, tr.Base, nil
	}
	cfg := core.Algorithm1Config{
		TargetRate: newRate, TargetLatencyMS: spec.TargetLatencyMS, Seed: seed + 3}

	// Strategy A: Algorithm 1 from scratch at the new rate.
	e, base, err := newEngine(10)
	if err != nil {
		return err
	}
	scratch, err := core.RunAlgorithm1(e, base, cfg)
	if err != nil {
		return err
	}
	r.Transfer = append(r.Transfer, TransferAblationRow{
		Workload: spec.Name, Strategy: "Algorithm1 (scratch)",
		RealRuns: scratch.BootstrapRuns + scratch.Iterations,
		FinalPar: scratch.Best.Par, Total: scratch.Best.Par.Total(),
		LatencyMS: scratch.Best.ProcLatencyMS, Met: scratch.Best.LatencyMet,
	})

	// Strategy B: Algorithm 2 transfer from the old-rate model.
	e, base, err = newEngine(20)
	if err != nil {
		return err
	}
	a2, err := core.RunAlgorithm2(e, base, a1Old.Model, cfg)
	if err != nil {
		return err
	}
	r.Transfer = append(r.Transfer, TransferAblationRow{
		Workload: spec.Name, Strategy: "Algorithm2 (transfer)",
		RealRuns: len(a2.Trials),
		FinalPar: a2.Best.Par, Total: a2.Best.Par.Total(),
		LatencyMS: a2.Best.ProcLatencyMS, Met: a2.Best.LatencyMet,
	})

	// Strategy C: unified (rate-unbound) model seeding Algorithm 2 —
	// the paper's future work. The rate slice acts as the "previous
	// model" but needed no nearest-rate selection.
	e, base, err = newEngine(30)
	if err != nil {
		return err
	}
	a2u, err := core.RunAlgorithm2(e, base, unified.at(newRate), cfg)
	if err != nil {
		return err
	}
	r.Transfer = append(r.Transfer, TransferAblationRow{
		Workload: spec.Name, Strategy: "UnifiedModel (future work)",
		RealRuns: len(a2u.Trials),
		FinalPar: a2u.Best.Par, Total: a2u.Best.Par.Total(),
		LatencyMS: a2u.Best.ProcLatencyMS, Met: a2u.Best.LatencyMet,
	})
	return nil
}

func (r *AblationResult) runMetricAblation(seed uint64) error {
	// Over-provisioned WordCount: Eq. 3 sizing from true rates recovers
	// the lean optimum; from observed rates it cannot (idle time inflates
	// the apparent need).
	spec := workloads.WordCount()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Seed:               seed + 40,
		InitialParallelism: dataflow.Uniform(4, 24),
	})
	if err != nil {
		return err
	}
	if _, err := core.MeasureTrial(e, nil); err != nil {
		return err
	}
	var m flink.OperatorRates
	e.OperatorRates(&m)
	optimal := dataflow.ParallelismVector{3, 4, 12, 10}

	size := func(rates []float64) dataflow.ParallelismVector {
		g := e.Graph()
		next := make(dataflow.ParallelismVector, g.NumOperators())
		proj := make([]float64, g.NumOperators())
		for _, src := range g.Sources() {
			proj[src] = spec.DefaultRateRPS
		}
		for _, i := range g.TopoOrder() {
			v := rates[i]
			if v <= 0 {
				next[i] = m.Par[i]
			} else {
				k := int(math.Ceil(proj[i] / v))
				if k < 1 {
					k = 1
				}
				next[i] = k
			}
			out := proj[i] * g.Operator(i).Selectivity
			for _, s := range g.Successors(i) {
				proj[s] += out
			}
		}
		return next
	}

	for _, c := range []struct {
		name  string
		rates []float64
	}{
		{"true rate", m.TrueRatePerInstance},
		{"observed rate", m.ObservedRatePerInstance},
	} {
		rec := size(c.rates)
		r.Metric = append(r.Metric, MetricAblationRow{
			Workload: spec.Name, Metric: c.name,
			Recommended: rec, Total: rec.Total(), OptimalTotal: optimal.Total(),
			OverProvision: float64(rec.Total()-optimal.Total()) / float64(optimal.Total()),
		})
	}
	return nil
}

func (r *AblationResult) runKernelAblation(seed uint64) error {
	// Gather a real benefit surface from WordCount trials, then compare
	// kernel families on held-out prediction.
	spec := workloads.WordCount()
	e, err := workloads.NewEngine(spec, workloads.EngineOptions{Seed: seed + 50})
	if err != nil {
		return err
	}
	tr, err := core.OptimizeThroughput(e, core.ThroughputOptions{TargetRate: spec.DefaultRateRPS})
	if err != nil {
		return err
	}
	a1, err := core.RunAlgorithm1(e, tr.Base, core.Algorithm1Config{
		TargetRate: spec.DefaultRateRPS, TargetLatencyMS: spec.TargetLatencyMS,
		Seed: seed + 51, MaxIterations: 20,
	})
	if err != nil {
		return err
	}
	trials := a1.Trials
	if len(trials) < 8 {
		return fmt.Errorf("experiments: only %d trials for the kernel ablation", len(trials))
	}
	// Leave-every-third-out split, deterministic.
	var trainX, testX [][]float64
	var trainY, testY []float64
	for i, t := range trials {
		x := t.Par.Floats()
		if i%3 == 2 {
			testX = append(testX, x)
			testY = append(testY, t.Score)
		} else {
			trainX = append(trainX, x)
			trainY = append(trainY, t.Score)
		}
	}
	for _, fam := range []struct {
		name string
		f    gp.KernelFamily
	}{
		{"Matern52", gp.FamilyMatern52},
		{"Matern32", gp.FamilyMatern32},
		{"RBF", gp.FamilyRBF},
	} {
		model, err := gp.FitAuto(trainX, trainY, gp.FitOptions{Family: fam.f})
		if err != nil {
			return err
		}
		var sum, maxAbs float64
		for i, x := range testX {
			d := math.Abs(model.PredictMean(x) - testY[i])
			sum += d
			if d > maxAbs {
				maxAbs = d
			}
		}
		r.Kernel = append(r.Kernel, KernelAblationRow{
			Kernel:  fam.name,
			MeanAbs: sum / float64(len(testX)),
			MaxAbs:  maxAbs,
		})
	}
	return nil
}

// Render prints the three ablation tables.
func (r *AblationResult) Render() []Table {
	a := Table{
		Title:   "Ablation A — reacting to a rate change (Nexmark Q11, 80k → 100k rps)",
		Columns: []string{"strategy", "real runs", "final", "total", "latency(ms)", "met"},
	}
	for _, row := range r.Transfer {
		a.AddRow(row.Strategy, row.RealRuns, row.FinalPar.String(), row.Total, row.LatencyMS, row.Met)
	}
	b := Table{
		Title:   "Ablation B — Eq. 3 sizing metric from an over-provisioned start (WordCount @350k)",
		Columns: []string{"metric", "recommended", "total", "optimal total", "over-provision"},
	}
	for _, row := range r.Metric {
		b.AddRow(row.Metric, row.Recommended.String(), row.Total, row.OptimalTotal,
			fmt.Sprintf("%+.0f%%", 100*row.OverProvision))
	}
	c := Table{
		Title:   "Ablation C — GP kernel family on held-out benefit-score prediction",
		Columns: []string{"kernel", "mean |err|", "max |err|"},
	}
	for _, row := range r.Kernel {
		c.AddRow(row.Kernel, fmt.Sprintf("%.4f", row.MeanAbs), fmt.Sprintf("%.4f", row.MaxAbs))
	}
	return []Table{a, b, c}
}
