package experiments

import (
	"fmt"
	"time"

	"autrascale/internal/bo"
	"autrascale/internal/dataflow"
	"autrascale/internal/gp"
	"autrascale/internal/stat"
	"autrascale/internal/transfer"
)

// Table4Row is the measured overhead for one operator count.
type Table4Row struct {
	Operators int
	// Alg1TrainSec: fit the GP surrogate on the training set and compute
	// one EI-maximizing recommendation (the paper's Alg1_train).
	Alg1TrainSec float64
	// Alg1UseSec: one model prediction for a configuration (Alg1_use).
	Alg1UseSec float64
	// Alg2Sec: one transfer-learning pass — fit the residual model,
	// estimate the bootstrap set, and recommend (Alg2).
	Alg2Sec float64
}

// Table4Result reproduces Table IV: CPU time of the algorithms as the
// number of operators grows. The absolute values depend on the host; the
// paper's claim under test is that overheads grow roughly linearly in the
// operator count and stay far below the policy interval.
type Table4Result struct {
	Rows []Table4Row
}

// Table4Options parameterizes RunTable4.
type Table4Options struct {
	Seed uint64
	// OperatorCounts defaults to the paper's {2, 4, 6, 8, 10}.
	OperatorCounts []int
	// TrainingSamples is the surrogate training-set size (default 20).
	TrainingSamples int
	// Repeats averages the timing over this many runs (default 5).
	Repeats int
}

// RunTable4 measures the algorithms' CPU overhead on synthetic benefit
// surfaces of growing dimensionality.
func RunTable4(opts Table4Options) (*Table4Result, error) {
	if len(opts.OperatorCounts) == 0 {
		opts.OperatorCounts = []int{2, 4, 6, 8, 10}
	}
	if opts.TrainingSamples <= 0 {
		opts.TrainingSamples = 20
	}
	if opts.Repeats <= 0 {
		opts.Repeats = 5
	}
	res := &Table4Result{}
	for _, n := range opts.OperatorCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiments: invalid operator count %d", n)
		}
		row, err := measureOverhead(n, opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// syntheticScore is a smooth benefit surface over n-dimensional
// configurations, standing in for real measurements.
func syntheticScore(p dataflow.ParallelismVector) float64 {
	var s float64
	for _, k := range p {
		d := float64(k) - 6
		s += -0.002 * d * d
	}
	return 0.9 + s
}

func measureOverhead(n int, opts Table4Options) (Table4Row, error) {
	rng := stat.NewRNG(opts.Seed + uint64(n)*7919)
	base := dataflow.Uniform(n, 2)
	space, err := bo.NewSpace(base, 40)
	if err != nil {
		return Table4Row{}, err
	}
	// A reusable training set of random configurations.
	train := make([]bo.Observation, opts.TrainingSamples)
	for i := range train {
		p := space.RandomPoint(rng)
		train[i] = bo.Observation{Par: p, Score: syntheticScore(p)}
	}

	var trainTotal, useTotal, a2Total time.Duration
	var fitted *gp.Regressor
	for r := 0; r < opts.Repeats; r++ {
		// Alg1_train: surrogate fit + one recommendation.
		start := time.Now()
		opt, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: opts.Seed + uint64(r)})
		if err != nil {
			return Table4Row{}, err
		}
		for _, ob := range train {
			if err := opt.Add(ob); err != nil {
				return Table4Row{}, err
			}
		}
		if _, err := opt.Suggest(); err != nil {
			return Table4Row{}, err
		}
		trainTotal += time.Since(start)

		// Alg1_use: a single prediction from a fitted model.
		if fitted == nil {
			xs := make([][]float64, len(train))
			ys := make([]float64, len(train))
			for i, ob := range train {
				xs[i] = ob.Par.Floats()
				ys[i] = ob.Score
			}
			fitted, err = transfer.Fit(xs, ys)
			if err != nil {
				return Table4Row{}, err
			}
		}
		probe := space.RandomPoint(rng)
		start = time.Now()
		_ = fitted.PredictMean(probe.Floats())
		useTotal += time.Since(start)

		// Alg2: residual fit + bootstrap estimation + recommendation.
		start = time.Now()
		realSamples := []transfer.Sample{
			{X: base.Floats(), Y: syntheticScore(base)},
			{X: space.RandomPoint(rng).Floats(), Y: 0.85},
		}
		rm, err := transfer.FitResidual(fitted, realSamples)
		if err != nil {
			return Table4Row{}, err
		}
		bootstrap, err := space.BootstrapSet(5)
		if err != nil {
			return Table4Row{}, err
		}
		opt2, err := bo.NewOptimizer(bo.OptimizerConfig{Space: space, Seed: opts.Seed + 99 + uint64(r), Exploit: true})
		if err != nil {
			return Table4Row{}, err
		}
		for _, p := range bootstrap {
			if err := opt2.Add(bo.Observation{Par: p, Score: rm.PredictMean(p.Floats()), Estimated: true}); err != nil {
				return Table4Row{}, err
			}
		}
		if _, err := opt2.Suggest(); err != nil {
			return Table4Row{}, err
		}
		a2Total += time.Since(start)
	}
	rep := float64(opts.Repeats)
	return Table4Row{
		Operators:    n,
		Alg1TrainSec: trainTotal.Seconds() / rep,
		Alg1UseSec:   useTotal.Seconds() / rep,
		Alg2Sec:      a2Total.Seconds() / rep,
	}, nil
}

// Render prints Table IV.
func (r *Table4Result) Render() []Table {
	t := Table{
		Title:   "Table IV — algorithm CPU time vs number of operators (seconds)",
		Columns: []string{"operators", "Alg1_train(s)", "Alg1_use(s)", "Alg2(s)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Operators,
			fmt.Sprintf("%.5f", row.Alg1TrainSec),
			fmt.Sprintf("%.6f", row.Alg1UseSec),
			fmt.Sprintf("%.5f", row.Alg2Sec))
	}
	return []Table{t}
}
