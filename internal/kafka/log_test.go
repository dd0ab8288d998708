package kafka

import (
	"math"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

func TestNewTopicValidation(t *testing.T) {
	if _, err := NewTopic(nil); err == nil {
		t.Fatal("expected error for nil schedule")
	}
}

func TestConstantRate(t *testing.T) {
	s := ConstantRate(100)
	if s.RateAt(0) != 100 || s.RateAt(1e6) != 100 {
		t.Fatal("ConstantRate should be constant")
	}
}

func TestStepSchedule(t *testing.T) {
	s := StepSchedule{Steps: []Step{{0, 10}, {60, 20}, {120, 5}}}
	cases := []struct{ sec, want float64 }{
		{-1, 0}, {0, 10}, {59.9, 10}, {60, 20}, {119, 20}, {120, 5}, {1e6, 5},
	}
	for _, c := range cases {
		if got := s.RateAt(c.sec); got != c.want {
			t.Fatalf("RateAt(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
}

func TestIncreasingRateMatchesPaperCase1(t *testing.T) {
	// 100k start, +50k every 600s (10 min).
	s := IncreasingRate(100e3, 50e3, 600)
	if got := s.RateAt(0); got != 100e3 {
		t.Fatalf("RateAt(0) = %v", got)
	}
	if got := s.RateAt(599); got != 100e3 {
		t.Fatalf("RateAt(599) = %v", got)
	}
	if got := s.RateAt(600); got != 150e3 {
		t.Fatalf("RateAt(600) = %v", got)
	}
	if got := s.RateAt(2400); got != 300e3 {
		t.Fatalf("RateAt(2400) = %v, want 300k", got)
	}
	if got := s.RateAt(-5); got != 100e3 {
		t.Fatalf("RateAt(-5) = %v", got)
	}
}

func TestProduceConsumeLag(t *testing.T) {
	tp, err := NewTopic(ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	if n := tp.Produce(0, 1); n != 1000 {
		t.Fatalf("Produce = %v", n)
	}
	if got := tp.Consume(400); got != 400 {
		t.Fatalf("Consume = %v", got)
	}
	if tp.Lag() != 600 {
		t.Fatalf("Lag = %v", tp.Lag())
	}
	// Cannot consume more than available.
	if got := tp.Consume(10000); got != 600 {
		t.Fatalf("over-consume returned %v, want 600", got)
	}
	if tp.Lag() != 0 {
		t.Fatalf("Lag after drain = %v", tp.Lag())
	}
	if tp.Consume(-5) != 0 || tp.Produce(0, -1) != 0 {
		t.Fatal("negative amounts must be no-ops")
	}
}

// Property: conservation — produced = consumed + lag, lag >= 0.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		tp, err := NewTopic(ConstantRate(500 + r.Float64()*1000))
		if err != nil {
			return false
		}
		sec, produced, consumed := 0.0, 0.0, 0.0
		for i := 0; i < 200; i++ {
			dt := r.Float64()
			produced += tp.Produce(sec, dt)
			sec += dt
			consumed += tp.Consume(r.Float64() * 800)
			if tp.Lag() < -1e-9 {
				return false
			}
			if math.Abs(produced-consumed-tp.Lag()) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingTime(t *testing.T) {
	tp, _ := NewTopic(ConstantRate(100))
	tp.Produce(0, 10) // 1000 records
	if got := tp.PendingTimeSec(500); math.Abs(got-2) > 1e-9 {
		t.Fatalf("PendingTimeSec = %v, want 2", got)
	}
	if !math.IsInf(tp.PendingTimeSec(0), 1) {
		t.Fatal("zero consume rate with lag should be +Inf")
	}
	tp.Consume(1000)
	if tp.PendingTimeSec(0) != 0 {
		t.Fatal("no lag means zero pending time")
	}
}

func TestInputRateAt(t *testing.T) {
	tp, _ := NewTopic(ConstantRate(42))
	if tp.InputRateAt(123) != 42 {
		t.Fatal("InputRateAt should report the schedule")
	}
}
