package persist

import (
	"errors"
	"sync"
)

// Checkpointer periodically persists a fleet off the tick path. The
// drive loop calls Tick after each round; every Interval ticks the
// checkpointer captures the fleet's state (cheap: the capture callback
// runs under the fleet lock but only copies control state and grabs
// immutable COW library snapshots) and hands serialization plus the
// atomic file write to a background goroutine, so a slow disk never
// blocks Round. If a write is still in flight when the next checkpoint
// comes due, that checkpoint is skipped rather than queued — the
// freshest state wins, and Close writes a final synchronous checkpoint
// anyway.
type Checkpointer struct {
	path     string
	interval int
	capture  func() *FleetState

	mu       sync.Mutex
	ticks    int
	inflight bool
	written  int
	skipped  int
	lastErr  error
	wg       sync.WaitGroup
	closed   bool
}

// NewCheckpointer builds a checkpointer writing to path every interval
// ticks (minimum 1). capture must return a state no later round mutates —
// it is serialized concurrently with further fleet rounds. It may share
// immutable data, such as model training data, with the live fleet.
func NewCheckpointer(path string, interval int, capture func() *FleetState) (*Checkpointer, error) {
	if path == "" {
		return nil, errors.New("persist: checkpointer needs a path")
	}
	if capture == nil {
		return nil, errors.New("persist: checkpointer needs a capture callback")
	}
	if interval < 1 {
		interval = 1
	}
	return &Checkpointer{path: path, interval: interval, capture: capture}, nil
}

// Tick advances the checkpoint cadence: on every interval-th call the
// state is captured synchronously and written in the background. Safe to
// call from the drive loop between rounds.
func (c *Checkpointer) Tick() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.ticks++
	if c.ticks%c.interval != 0 {
		c.mu.Unlock()
		return
	}
	if c.inflight {
		// The disk is behind the cadence; drop this checkpoint instead of
		// queueing stale state behind the write.
		c.skipped++
		c.mu.Unlock()
		return
	}
	c.inflight = true
	// Counted before the lock drops: a Close that runs during the capture
	// below must wait for this write, or it would land over Close's.
	c.wg.Add(1)
	c.mu.Unlock()

	st := c.capture()
	go func() {
		defer c.wg.Done()
		err := WriteFile(c.path, st)
		c.mu.Lock()
		c.inflight = false
		if err != nil {
			c.lastErr = err
		} else {
			c.written++
		}
		c.mu.Unlock()
	}()
}

// Close waits for any in-flight write, then persists one final
// checkpoint synchronously so the file always reflects the fleet's
// terminal state. It returns the final write's error, or the last
// background error when the final write succeeds after earlier failures
// were swallowed by the tick path.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	if c.closed {
		err := c.lastErr
		c.mu.Unlock()
		return err
	}
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()

	err := WriteFile(c.path, c.capture())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.lastErr = err
		return err
	}
	c.written++
	return c.lastErr
}

// Stats reports how many checkpoints were written and how many were
// skipped because a write was still in flight.
func (c *Checkpointer) Stats() (written, skipped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written, c.skipped
}

// Err returns the most recent checkpoint error, if any.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}
