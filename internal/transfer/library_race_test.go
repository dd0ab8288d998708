package transfer

import (
	"sync"
	"testing"
)

// constPredictor is a trivial model for concurrency tests.
type constPredictor float64

func (c constPredictor) PredictMean([]float64) float64 { return float64(c) }

// The fleet shares one ModelLibrary across controller workers: models are
// published from worker goroutines while submissions call Nearest for
// warm starts. This test drives Put/Get/Nearest/Len/Rates/Entries from many
// goroutines at once; `go test -race ./internal/transfer/` must stay
// clean (make race runs it).
func TestModelLibraryConcurrentPutNearest(t *testing.T) {
	lib := NewModelLibrary()
	const (
		writers = 8
		readers = 8
		perG    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rate := float64(100 + (w*perG+i)%500)
				if err := lib.Put(rate, constPredictor(rate)); err != nil {
					t.Errorf("Put(%v): %v", rate, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rate := float64(100 + (r*perG+i)%700)
				if e, ok := lib.Nearest(rate); ok && e.Model == nil {
					t.Error("Nearest returned an entry with a nil model")
					return
				}
				lib.Get(rate)
				lib.Len()
				lib.Rates()
				lib.Entries()
			}
		}(r)
	}
	wg.Wait()

	// Every distinct rate written must be retrievable, sorted ascending.
	rates := lib.Rates()
	if len(rates) != 500 {
		t.Fatalf("library holds %d rates, want 500 distinct", len(rates))
	}
	for i := 1; i < len(rates); i++ {
		if rates[i-1] >= rates[i] {
			t.Fatalf("rates not strictly ascending at %d: %v >= %v", i, rates[i-1], rates[i])
		}
	}
	if _, ok := lib.Nearest(0); !ok {
		t.Fatal("Nearest found nothing in a populated library")
	}
}
