package fleet

// Incremental fleet health: the aggregate the /debug/health endpoint and
// Snapshot answer from. The fleet never walks all jobs to compute it —
// each job carries its current health class, and the aggregate counts
// are adjusted only on transitions: admission (Submit), reclassification
// at the round barrier (due jobs only, so the cost is O(due) per round),
// quarantine, drain, and removal. TestFleetBarrierIsODue locks the cost
// in by counting barrier visits.

import (
	"sort"

	"autrascale/internal/slo"
)

// healthClass is a job's slot in the aggregate counts. Unlike State it
// classifies SLO health, not lifecycle; quarantined and drained jobs
// occupy their own classes because they have no live SLO signal.
type healthClass uint8

const (
	classHealthy healthClass = iota
	classDegraded
	classBurning
	classQuarantined
	classDrained
	numHealthClasses
)

// classOf maps a tracker state to the aggregate class.
func classOf(s slo.State) healthClass {
	switch s {
	case slo.StateBurning:
		return classBurning
	case slo.StateDegraded:
		return classDegraded
	default:
		return classHealthy
	}
}

// topBurnK bounds the burn-rate ranking the aggregate maintains.
const topBurnK = 8

// BurnRank is one entry of the fleet's worst-burn ranking.
type BurnRank struct {
	Name     string  `json:"name"`
	BurnRate float64 `json:"burn_rate"`
}

// FleetHealth is the aggregate health view. Jobs counts every live job
// (running, quarantined, or drained-but-not-removed); the class counts
// always sum to it. TopBurn ranks the worst burn rates observed at each
// job's most recent barrier visit, worst first — a job whose burn decayed
// since its last visit keeps its stale rank until it is due again, which
// bounds staleness by the job's policy interval.
type FleetHealth struct {
	Jobs        int        `json:"jobs"`
	Healthy     int        `json:"healthy"`
	Degraded    int        `json:"degraded"`
	Burning     int        `json:"burning"`
	Quarantined int        `json:"quarantined"`
	Drained     int        `json:"drained"`
	TopBurn     []BurnRank `json:"top_burn,omitempty"`
}

// healthAgg is the fleet's incremental aggregate: per-class counts plus
// the bounded worst-burn ranking.
type healthAgg struct {
	counts [numHealthClasses]int
	top    burnTop
}

// burnEntry is one ranked job.
type burnEntry struct {
	name string
	burn float64
}

// burnLess orders the ranking: higher burn first, name as the
// deterministic tie-break.
func burnLess(a, b burnEntry) bool {
	if a.burn != b.burn {
		return a.burn > b.burn
	}
	return a.name < b.name
}

// burnTop is a bounded, sorted top-K set. K is small (topBurnK), so
// linear insertion beats heap bookkeeping and keeps the order fully
// deterministic.
type burnTop struct {
	entries []burnEntry // ≤ topBurnK, sorted by burnLess
}

// update re-ranks name at the given burn, displacing the weakest entry
// when the set is full.
func (t *burnTop) update(name string, burn float64) {
	t.remove(name)
	e := burnEntry{name: name, burn: burn}
	i := sort.Search(len(t.entries), func(i int) bool { return burnLess(e, t.entries[i]) })
	if i >= topBurnK {
		return
	}
	t.entries = append(t.entries, burnEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	if len(t.entries) > topBurnK {
		t.entries = t.entries[:topBurnK]
	}
}

// remove drops name from the ranking if present.
func (t *burnTop) remove(name string) {
	for i, e := range t.entries {
		if e.name == name {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return
		}
	}
}

// healthAdmit enters a submitted job into the aggregate as healthy.
// Caller holds f.mu.
func (f *Fleet) healthAdmit(j *job) {
	j.health = classHealthy
	f.health.counts[classHealthy]++
}

// healthReclass moves a job between classes. Caller holds f.mu.
func (f *Fleet) healthReclass(j *job, c healthClass) {
	if j.health == c {
		return
	}
	f.health.counts[j.health]--
	f.health.counts[c]++
	j.health = c
}

// healthObserve folds one due job's tracker verdict into the aggregate
// at the round barrier. Caller holds f.mu.
func (f *Fleet) healthObserve(j *job) {
	h := j.ctl.SLOHealth()
	j.burn = h.BurnRate
	f.healthReclass(j, classOf(h.State))
	f.health.top.update(j.spec.Name, h.BurnRate)
}

// healthQuarantine reclassifies an errored job and drops it from the
// burn ranking (its SLO signal is dead). Caller holds f.mu.
func (f *Fleet) healthQuarantine(j *job) {
	f.healthReclass(j, classQuarantined)
	f.health.top.remove(j.spec.Name)
}

// healthDrain retires a job into the drained class. Caller holds f.mu.
func (f *Fleet) healthDrain(j *job) {
	f.healthReclass(j, classDrained)
	f.health.top.remove(j.spec.Name)
}

// healthRemove deletes a job from the aggregate. Caller holds f.mu.
func (f *Fleet) healthRemove(j *job) {
	f.health.counts[j.health]--
	f.health.top.remove(j.spec.Name)
}

// healthLocked materializes the public view. Caller holds f.mu. Copies
// at most topBurnK entries — never O(jobs).
func (f *Fleet) healthLocked() FleetHealth {
	h := FleetHealth{
		Jobs:        len(f.order),
		Healthy:     f.health.counts[classHealthy],
		Degraded:    f.health.counts[classDegraded],
		Burning:     f.health.counts[classBurning],
		Quarantined: f.health.counts[classQuarantined],
		Drained:     f.health.counts[classDrained],
	}
	if n := len(f.health.top.entries); n > 0 {
		h.TopBurn = make([]BurnRank, n)
		for i, e := range f.health.top.entries {
			h.TopBurn[i] = BurnRank{Name: e.name, BurnRate: e.burn}
		}
	}
	return h
}

// HealthSnapshot returns the fleet's aggregate health. O(topBurnK), not
// O(jobs): the counts and ranking are maintained incrementally at the
// round barrier.
func (f *Fleet) HealthSnapshot() FleetHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healthLocked()
}
