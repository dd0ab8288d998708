// Package dataflow models stream-processing jobs as directed acyclic
// graphs of operators, mirroring Flink's JobGraph: each operator has a
// name, a parallelism, a selectivity (output records per input record),
// and a performance profile consumed by the simulator.
//
// The package also defines ParallelismVector, the configuration space that
// AuTraScale, DS2, and DRS all search over.
package dataflow

import (
	"errors"
	"fmt"
	"strings"
)

// OperatorKind classifies operators for simulation and policy purposes.
type OperatorKind int

// Operator kinds.
const (
	KindSource OperatorKind = iota
	KindTransform
	KindWindow
	KindSink
)

// String names the kind.
func (k OperatorKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindTransform:
		return "transform"
	case KindWindow:
		return "window"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Profile captures the simulated performance characteristics of one
// operator. Rates are per instance, in records per second, before
// synchronization and interference penalties.
type Profile struct {
	// BaseRatePerInstance is the true processing rate of a single,
	// uncontended instance (records/s of *input* records).
	BaseRatePerInstance float64
	// SyncCost σ models coordination overhead between instances of the
	// same operator: per-instance rate is scaled by 1/(1+σ·(k−1)+κ·k·(k−1)).
	// Produces the paper's Observation 2.1 (non-linear scaling).
	SyncCost float64
	// CrossCost κ is the quadratic (crosstalk) term of the Universal
	// Scalability Law denominator above.
	CrossCost float64
	// QueueScaleMS scales the queueing-delay latency term
	// QueueScaleMS·ρ/(1−ρ); zero disables queueing latency.
	QueueScaleMS float64
	// MaxCongestion caps the ρ/(1−ρ) congestion factor — credit-based
	// backpressure bounds an instance's standing queue at its buffer
	// budget, expressed in service quanta. Zero means the default (25).
	MaxCongestion float64
	// StateCostMS is a per-record latency component from state/timer
	// maintenance that shards across instances: it contributes
	// StateCostMS/k. This produces the latency *benefit* of added
	// parallelism the paper's Observation 2.2 notes, complementing the
	// communication-cost upturn.
	StateCostMS float64
	// CommCostPerParallelism adds c1·k milliseconds of shuffle latency,
	// producing Observation 2.2 (latency upturn at high parallelism).
	CommCostPerParallelism float64
	// FixedLatencyMS is the baseline per-record latency contribution
	// (deserialization, framework overhead) in milliseconds.
	FixedLatencyMS float64
	// ExternalCapRPS, when > 0, caps the operator's *total* processing
	// rate regardless of parallelism — the Redis read/write bottleneck of
	// the Yahoo streaming benchmark.
	ExternalCapRPS float64
	// CPUPerInstance is the number of CPU cores one busy instance uses
	// (for the interference model and Fig. 8(c) resource accounting).
	CPUPerInstance float64
	// MemPerInstanceMB is the managed memory per slot, MB.
	MemPerInstanceMB float64
}

// Validate checks a profile for usable values.
func (p Profile) Validate() error {
	if p.BaseRatePerInstance <= 0 {
		return fmt.Errorf("dataflow: BaseRatePerInstance must be > 0, got %v", p.BaseRatePerInstance)
	}
	if p.SyncCost < 0 || p.CrossCost < 0 || p.CommCostPerParallelism < 0 ||
		p.FixedLatencyMS < 0 || p.QueueScaleMS < 0 || p.StateCostMS < 0 ||
		p.MaxCongestion < 0 {
		return errors.New("dataflow: negative cost in profile")
	}
	if p.ExternalCapRPS < 0 {
		return errors.New("dataflow: ExternalCapRPS must be >= 0")
	}
	return nil
}

// Operator is one vertex of a job graph.
type Operator struct {
	Name string
	Kind OperatorKind
	// Selectivity is the average number of output records per input
	// record (e.g., a FlatMap splitting sentences into words has
	// selectivity > 1; a filter < 1; a sink 0).
	Selectivity float64
	Profile     Profile
}

// Graph is a DAG of operators. Build with AddOperator/Connect, then call
// Validate (or use MustBuild helpers in workloads).
type Graph struct {
	Name      string
	operators []Operator
	index     map[string]int
	edges     map[int][]int // adjacency: operator index -> successor indexes
	inDegree  []int
	validated bool
	topo      []int
}

// NewGraph returns an empty graph with the given job name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, index: map[string]int{}, edges: map[int][]int{}}
}

// AddOperator appends an operator; names must be unique.
func (g *Graph) AddOperator(op Operator) error {
	if op.Name == "" {
		return errors.New("dataflow: operator needs a name")
	}
	if _, dup := g.index[op.Name]; dup {
		return fmt.Errorf("dataflow: duplicate operator %q", op.Name)
	}
	if err := op.Profile.Validate(); err != nil {
		return fmt.Errorf("operator %q: %w", op.Name, err)
	}
	if op.Selectivity < 0 {
		return fmt.Errorf("dataflow: operator %q has negative selectivity", op.Name)
	}
	g.index[op.Name] = len(g.operators)
	g.operators = append(g.operators, op)
	g.inDegree = append(g.inDegree, 0)
	g.validated = false
	return nil
}

// Connect adds an edge from operator `from` to operator `to`.
func (g *Graph) Connect(from, to string) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("dataflow: unknown operator %q", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("dataflow: unknown operator %q", to)
	}
	if fi == ti {
		return fmt.Errorf("dataflow: self-edge on %q", from)
	}
	for _, s := range g.edges[fi] {
		if s == ti {
			return fmt.Errorf("dataflow: duplicate edge %s->%s", from, to)
		}
	}
	g.edges[fi] = append(g.edges[fi], ti)
	g.inDegree[ti]++
	g.validated = false
	return nil
}

// NumOperators returns the number of operators (N in the paper).
func (g *Graph) NumOperators() int { return len(g.operators) }

// Operator returns the operator at index i.
func (g *Graph) Operator(i int) Operator { return g.operators[i] }

// Successors returns the indexes of the successors of operator i.
func (g *Graph) Successors(i int) []int {
	return append([]int(nil), g.edges[i]...)
}

// Sources returns indexes of operators with no predecessors.
func (g *Graph) Sources() []int {
	var out []int
	for i, d := range g.inDegree {
		if d == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks that the graph is a non-empty DAG with at least one
// source and that every operator is reachable from a source. It also
// computes and caches the topological order.
func (g *Graph) Validate() error {
	if len(g.operators) == 0 {
		return errors.New("dataflow: empty graph")
	}
	// Kahn's algorithm.
	deg := append([]int(nil), g.inDegree...)
	var queue, topo []int
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	if len(queue) == 0 {
		return errors.New("dataflow: graph has no source operator")
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		topo = append(topo, n)
		for _, s := range g.edges[n] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != len(g.operators) {
		return errors.New("dataflow: graph contains a cycle")
	}
	g.topo = topo
	g.validated = true
	return nil
}

// TopoOrder returns operator indexes in a topological order. It panics if
// Validate has not succeeded.
func (g *Graph) TopoOrder() []int {
	if !g.validated {
		panic("dataflow: TopoOrder before successful Validate")
	}
	return append([]int(nil), g.topo...)
}

// String renders the graph structure.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %q (%d operators)\n", g.Name, len(g.operators))
	for i, op := range g.operators {
		fmt.Fprintf(&b, "  [%d] %s (%s, sel=%.2f)", i, op.Name, op.Kind, op.Selectivity)
		if len(g.edges[i]) > 0 {
			names := make([]string, 0, len(g.edges[i]))
			for _, s := range g.edges[i] {
				names = append(names, g.operators[s].Name)
			}
			fmt.Fprintf(&b, " -> %s", strings.Join(names, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
