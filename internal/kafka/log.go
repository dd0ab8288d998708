// Package kafka is a minimal stand-in for the Kafka deployment of the
// paper's testbed: a partitioned append-only log with a producer driven by
// a rate schedule and consumer offsets, exposing the metric the paper's
// Fig. 1(b) plots — records lag (data accumulated but not yet consumed).
//
// The simulator's source operators consume from a Topic; event-time
// latency includes the pending time records spend here before being read
// (paper §III-C: "event-time latency includes the pending time of data in
// Kafka and the processing delay in streaming systems").
package kafka

import (
	"errors"
	"fmt"
	"math"
)

// RateSchedule yields the producer input rate (records/second) at a given
// simulation time.
type RateSchedule interface {
	RateAt(sec float64) float64
}

// ConstantRate is a fixed-rate schedule.
type ConstantRate float64

// RateAt returns the constant rate.
func (c ConstantRate) RateAt(sec float64) float64 { return float64(c) }

// StepSchedule changes rate at fixed boundaries: rate Steps[i].Rate applies
// from Steps[i].FromSec (inclusive) until the next step.
type StepSchedule struct {
	Steps []Step
}

// Step is one segment of a StepSchedule.
type Step struct {
	FromSec float64
	Rate    float64
}

// RateAt returns the rate of the last step whose FromSec <= sec, or 0
// before the first step.
func (s StepSchedule) RateAt(sec float64) float64 {
	rate := 0.0
	for _, st := range s.Steps {
		if sec >= st.FromSec {
			rate = st.Rate
		} else {
			break
		}
	}
	return rate
}

// IncreasingRate reproduces the paper's CASE 1 schedule: start at
// startRate and add stepRate every stepEverySec seconds.
func IncreasingRate(startRate, stepRate, stepEverySec float64) RateSchedule {
	return rampSchedule{start: startRate, step: stepRate, every: stepEverySec}
}

type rampSchedule struct {
	start, step, every float64
}

func (r rampSchedule) RateAt(sec float64) float64 {
	if sec < 0 {
		return r.start
	}
	n := math.Floor(sec / r.every)
	return r.start + n*r.step
}

// Topic is a single-consumer-group partitioned log. Offsets and sizes are
// in records (fractional records accumulate between ticks and are carried
// precisely, so conservation holds to floating-point accuracy).
type Topic struct {
	Name       string
	Partitions int

	produced float64 // total records appended
	consumed float64 // total records read by the consumer group
	schedule RateSchedule
	// stalled is the fraction of partitions currently unreadable
	// (broker stall / ISR shrink injected by chaos). The consumer can
	// only drain the backlog held by the live partitions; the stalled
	// share becomes readable again when the stall clears.
	stalled float64
}

// NewTopic creates a topic with the given partition count and producer
// schedule.
func NewTopic(name string, partitions int, schedule RateSchedule) (*Topic, error) {
	if partitions <= 0 {
		return nil, fmt.Errorf("kafka: topic %q needs partitions > 0", name)
	}
	if schedule == nil {
		return nil, errors.New("kafka: nil schedule")
	}
	return &Topic{Name: name, Partitions: partitions, schedule: schedule}, nil
}

// Produce advances the producer by dt seconds starting at time sec,
// appending schedule-rate records. Returns the number appended.
func (t *Topic) Produce(sec, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	n := t.schedule.RateAt(sec) * dt
	if n < 0 {
		n = 0
	}
	t.produced += n
	return n
}

// Consume removes up to want records and returns how many were actually
// available. The consumer can never read past the head of the log, and
// while partitions are stalled only the live partitions' share of the
// backlog is readable.
func (t *Topic) Consume(want float64) float64 {
	if want <= 0 {
		return 0
	}
	avail := (t.produced - t.consumed) * (1 - t.stalled)
	if want > avail {
		want = avail
	}
	t.consumed += want
	return want
}

// SetStalledFraction marks the given fraction of partitions unreadable
// (clamped to [0, 1)); 0 clears the stall. Fault injection only — a
// healthy broker never calls this.
func (t *Topic) SetStalledFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = 0.99
	}
	t.stalled = f
}

// Lag returns the records produced but not yet consumed (Kafka's
// records-lag-max aggregated over partitions).
func (t *Topic) Lag() float64 { return t.produced - t.consumed }

// InputRateAt reports the scheduled input rate at time sec.
func (t *Topic) InputRateAt(sec float64) float64 { return t.schedule.RateAt(sec) }

// PendingTimeSec estimates how long a newly produced record waits before
// being consumed, assuming the current consumption rate continues:
// lag / consumeRate. A zero consumption rate with non-zero lag yields +Inf.
func (t *Topic) PendingTimeSec(consumeRate float64) float64 {
	lag := t.Lag()
	if lag <= 0 {
		return 0
	}
	if consumeRate <= 0 {
		return math.Inf(1)
	}
	return lag / consumeRate
}

// Reset clears offsets (used when a job is restarted from a savepoint the
// log itself is kept — only consumer position may be rewound).
func (t *Topic) Reset() {
	t.produced = 0
	t.consumed = 0
}

// SeekToLatest moves the consumer group to the head of the log, dropping
// the current backlog (Kafka's auto.offset.reset=latest semantics). It
// returns the number of records skipped. Evaluation harnesses use this to
// measure a configuration's steady-state QoS without the backlog inherited
// from earlier trials.
func (t *Topic) SeekToLatest() float64 {
	skipped := t.produced - t.consumed
	t.consumed = t.produced
	return skipped
}
