package core

import (
	"testing"

	"autrascale/internal/gp"
)

// A failed or empty fit leaves fitFinalModel's result nil. Storing it must
// leave the library empty: a nil model filed under a rate would be
// dereferenced by the next transfer's PredictMean and the next capture.
func TestStoreModelSkipsNilModel(t *testing.T) {
	p, err := NewBOPolicy(BOConfig{TargetLatencyMS: 160, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var m *gp.Regressor
	p.storeModel(1000, m)
	if n := p.Library().Len(); n != 0 {
		t.Fatalf("library holds %d models after storing a nil fit, want 0", n)
	}
}
