// Package cluster models the resource substrate the paper's Flink+YARN
// testbed provides: machines with a fixed number of CPU cores, divided
// into slots that hold operator instances. Slots isolate managed memory
// but — exactly as in Flink — not CPU, so co-located instances interfere.
//
// The interference model is the heart of the paper's Motivation section:
// throughput does not scale linearly with parallelism (Observation 2.1)
// because instances contend for cores. AuTraScale's whole premise is that
// a Gaussian process can absorb this non-linearity while queueing models
// (DRS) and linear-scaling rules (DS2) cannot.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Machine describes one worker node.
type Machine struct {
	Name  string
	Cores int
}

// Cluster is a set of machines plus the interference parameters.
// Machine availability may change at runtime (SetMachineDown) to model
// failures; a Cluster is owned by one simulation and is not safe for
// concurrent mutation.
type Cluster struct {
	machines []Machine
	down     map[int]bool
	// upCores caches the cores of the machines currently up — read on
	// every simulated tick, changed only by SetMachineDown.
	upCores int
	// InterferenceGamma is the exponent of the oversubscription penalty:
	// per-instance speed scales by (cores/instances)^gamma when a machine
	// hosts more busy instances than cores. gamma in [0.5, 1.5]; higher
	// means harsher contention.
	InterferenceGamma float64
	// BackgroundLoad is a fraction [0, 1) of each machine's cores consumed by
	// co-located system daemons (Kafka, ZooKeeper, ...), shrinking the
	// effective core count.
	BackgroundLoad float64
}

// Config configures New.
type Config struct {
	Machines          []Machine
	InterferenceGamma float64
	BackgroundLoad    float64
}

// New builds a cluster. With no machines it returns an error.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Machines) == 0 {
		return nil, errors.New("cluster: need at least one machine")
	}
	for _, m := range cfg.Machines {
		if m.Cores <= 0 {
			return nil, fmt.Errorf("cluster: machine %q has %d cores", m.Name, m.Cores)
		}
	}
	gamma := cfg.InterferenceGamma
	if gamma == 0 {
		gamma = 1.0
	}
	if gamma < 0 {
		return nil, errors.New("cluster: negative InterferenceGamma")
	}
	if cfg.BackgroundLoad < 0 || cfg.BackgroundLoad >= 1 {
		return nil, errors.New("cluster: BackgroundLoad must be in [0, 1)")
	}
	c := &Cluster{
		machines:          append([]Machine(nil), cfg.Machines...),
		down:              map[int]bool{},
		InterferenceGamma: gamma,
		BackgroundLoad:    cfg.BackgroundLoad,
	}
	c.upCores = c.TotalCores()
	return c, nil
}

// PaperTestbed returns the paper's evaluation cluster: three Dell R730xd
// nodes (20 cores each) running Flink/Hadoop. (The fourth R740xd machine
// hosts Kafka/ZooKeeper and is modeled as background infrastructure, not
// as Flink capacity.)
func PaperTestbed() *Cluster {
	c, err := New(Config{
		Machines: []Machine{
			{Name: "r730xd-1", Cores: 20},
			{Name: "r730xd-2", Cores: 20},
			{Name: "r730xd-3", Cores: 20},
		},
		InterferenceGamma: 1.0,
		BackgroundLoad:    0.05,
	})
	if err != nil {
		panic(err) // static config, cannot fail
	}
	return c
}

// Machine returns machine i.
func (c *Cluster) Machine(i int) Machine { return c.machines[i] }

// TotalCores returns the total raw core count.
func (c *Cluster) TotalCores() int {
	var s int
	for _, m := range c.machines {
		s += m.Cores
	}
	return s
}

// UpCores returns the cores of machines currently up.
func (c *Cluster) UpCores() int { return c.upCores }

// EffectiveCores returns the cores available to job instances after
// background load, on the machines currently up. A failed machine's
// slots reschedule onto the survivors, so capacity shrinks and the
// interference model picks up the resulting oversubscription.
func (c *Cluster) EffectiveCores() float64 {
	return float64(c.UpCores()) * (1 - c.BackgroundLoad)
}

// SetMachineDown marks a machine failed (down=true) or recovered.
func (c *Cluster) SetMachineDown(name string, down bool) error {
	for i, m := range c.machines {
		if m.Name == name {
			if down && c.downCount() == len(c.machines)-1 && !c.down[i] {
				return errors.New("cluster: cannot fail the last machine")
			}
			if c.down[i] != down {
				c.down[i] = down
				if down {
					c.upCores -= m.Cores
				} else {
					c.upCores += m.Cores
				}
			}
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown machine %q", name)
}

// UpMachineNames returns the names of machines currently up, sorted.
// Fault injectors pick kill victims from this list (first entry), so
// victim selection is deterministic — never a map-iteration artifact.
func (c *Cluster) UpMachineNames() []string {
	return c.machineNames(false)
}

// DownMachineNames returns the names of failed machines, sorted —
// recovery candidates for fault schedules.
func (c *Cluster) DownMachineNames() []string {
	return c.machineNames(true)
}

func (c *Cluster) machineNames(down bool) []string {
	var names []string
	for i, m := range c.machines {
		if c.down[i] == down {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) downCount() int {
	n := 0
	for _, d := range c.down {
		if d {
			n++
		}
	}
	return n
}

// MaxParallelism returns the per-operator parallelism ceiling P_max the
// policies use. Following Flink practice we allow one slot per core.
func (c *Cluster) MaxParallelism() int { return c.TotalCores() }

// InterferenceFactor returns the per-instance speed multiplier when
// `demand` core-equivalents of busy instances run on the cluster.
// It is 1 when demand fits the effective cores, and decays as
// (capacity/demand)^gamma beyond that.
func (c *Cluster) InterferenceFactor(demand float64) float64 {
	cap := c.EffectiveCores()
	if demand <= cap || demand <= 0 {
		return 1
	}
	return math.Pow(cap/demand, c.InterferenceGamma)
}
