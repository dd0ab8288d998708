package bo

import "autrascale/internal/dataflow"

// pointIndex numbers distinct lattice points 0, 1, 2, … in the order they
// are first inserted. It is keyed by the vector itself: an open-addressing
// table (linear probing, load ≤ ½) over a hash of the ints, with hash
// collisions resolved by Equal, so it is exact for any dimension. Once its
// buffers are warm, inserting and probing allocate nothing — a suggestion
// probes it once per candidate, where a string-keyed map would intern a
// key per candidate.
//
// The index keeps the inserted vectors, not copies: a key must not be
// mutated while it is in the index. The zero value is empty and ready.
type pointIndex struct {
	slots  []int32 // 0 is empty, else entry number + 1; len is 0 or a power of two
	hashes []uint64
	keys   []dataflow.ParallelismVector
	// hash replaces hashPoint when set; tests force collisions with it.
	hash func(dataflow.ParallelismVector) uint64
}

// hashPoint mixes each coordinate into the state and finishes with the
// SplitMix64 finalizer, so the low bits the table masks are well spread.
func hashPoint(p dataflow.ParallelismVector) uint64 {
	h := uint64(len(p))
	for _, k := range p {
		h = (h ^ uint64(k)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func (t *pointIndex) hashOf(p dataflow.ParallelismVector) uint64 {
	if t.hash != nil {
		return t.hash(p)
	}
	return hashPoint(p)
}

// probe returns p's entry number, or -1 and the empty slot where p would
// go.
func (t *pointIndex) probe(p dataflow.ParallelismVector, h uint64) (entry, slot int) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, int(i)
		}
		if e := int(s - 1); t.hashes[e] == h && t.keys[e].Equal(p) {
			return e, int(i)
		}
	}
}

// find returns p's entry number.
func (t *pointIndex) find(p dataflow.ParallelismVector) (int, bool) {
	if len(t.keys) == 0 {
		return -1, false
	}
	e, _ := t.probe(p, t.hashOf(p))
	return e, e >= 0
}

// insert adds p unless an equal point is present, and returns the entry
// number of p (new: the previous len) and whether p was added.
func (t *pointIndex) insert(p dataflow.ParallelismVector) (int, bool) {
	h := t.hashOf(p)
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	e, slot := t.probe(p, h)
	if e >= 0 {
		return e, false
	}
	e = len(t.keys)
	t.slots[slot] = int32(e + 1)
	t.hashes = append(t.hashes, h)
	t.keys = append(t.keys, p)
	return e, true
}

// grow doubles the slot table (16 at least) and re-places every entry by
// its stored hash.
func (t *pointIndex) grow() {
	n := 2 * len(t.slots)
	if n < 16 {
		n = 16
	}
	t.slots = make([]int32, n)
	mask := uint64(n - 1)
	for e, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(e + 1)
	}
}

// reset empties the index, keeping its buffers.
func (t *pointIndex) reset() {
	clear(t.slots)
	clear(t.keys)
	t.keys = t.keys[:0]
	t.hashes = t.hashes[:0]
}
