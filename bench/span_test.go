package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// at builds a closed span by hand.
func at(name string, start, end int64, parent int) span {
	return span{Name: name, Start: start, End: end, Parent: parent}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		at("round", 0, 100, -1), // 0
		at("plan", 10, 40, 0),   // 1: overlaps 2 on [30, 40)
		at("plan", 30, 60, 0),   // 2: a parallel worker
		at("plan", 70, 80, 0),   // 3
		at("trial", 12, 20, 1),  // 4: grandchild, charged to span 1 only
	}
	self := selfTimes(spans)
	// Children cover [10, 60) ∪ [70, 80) = 60 of the round's 100.
	if self[0] != 40 {
		t.Errorf("round self = %d, want 40 (overlapping children must not be subtracted twice)", self[0])
	}
	if self[1] != 22 {
		t.Errorf("plan self = %d, want 30-8 = 22", self[1])
	}
	if self[2] != 30 || self[4] != 8 {
		t.Errorf("leaf self times = %d, %d, want 30, 8", self[2], self[4])
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		at("round", 50, 60, -1),
		at("plan", 40, 70, 0),  // sticks out both sides: clipped to the parent
		at("plan", 55, 200, 0), // and one running long past it
		at("orphan", 0, 5, 99), // parent index out of range: treated as top-level
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			t.Errorf("span %d self = %d, want >= 0", i, v)
		}
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("fully covered parent self = %d, want 0", got)
	}
}

func TestTotalsByNameKeepsToTheRegion(t *testing.T) {
	spans := []span{
		{Name: "plan", Start: 0, End: 10, Parent: -1, Value: 5},    // set-up: before the region
		{Name: "plan", Start: 100, End: 130, Parent: -1, Value: 7}, // in the region
		{Name: "plan", Start: 150, End: 190, Parent: -1, Value: 1}, // in the region
		{Name: "plan", Start: 195, End: 260, Parent: -1},           // a probe: ends after it
	}
	tot := totalsByName(spans, 100, 200)["plan"]
	if tot == nil || tot.Count != 2 || tot.BusyNs != 70 || tot.Value != 8 || len(tot.Durs) != 2 {
		t.Fatalf("totals = %+v, want 2 spans, 70 ns busy, value 8", tot)
	}
}

func TestTopLevelCover(t *testing.T) {
	spans := []span{
		at("a", 0, 40, -1), at("b", 30, 60, -1), at("child", 61, 99, 0), at("c", 90, 120, -1),
	}
	// Top-level spans cover [0, 60) ∪ [90, 100) of [0, 100): 70%.
	if got := topLevelCover(spans, 0, 100); got != 0.7 {
		t.Errorf("cover = %v, want 0.7", got)
	}
	if got := topLevelCover(nil, 10, 10); got != 0 {
		t.Errorf("empty region cover = %v, want 0", got)
	}
}

func TestRecorderNilIsDisabledAndFlushWritesOnce(t *testing.T) {
	var off *spanRecorder
	off.end(off.begin("x", -1, 0), 1)
	off.add(span{})
	if off.snapshot() != nil {
		t.Fatal("nil recorder recorded something")
	}

	r := newSpanRecorder()
	outer := r.begin("outer", -1, 7)
	inner := r.begin("inner", outer, 7)
	r.end(inner, 3)
	r.end(outer, 0)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := os.Stat(path); err == nil {
		t.Fatal("spans reached the disk before flush")
	}
	if err := r.flush(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Parent != 0 || back[1].Run != 7 || back[1].Value != 3 ||
		back[1].Start < back[0].Start || back[1].End > back[0].End {
		t.Fatalf("flushed spans = %+v", back)
	}
}
