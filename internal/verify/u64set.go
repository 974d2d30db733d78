package verify

// u64Set is an open-addressing hash set of uint64 keys tuned for the
// verifier's packed states. Zero is reserved as the empty-slot sentinel;
// the packed encoding can never produce 0 (the idle-slot occupant field is
// 0xF), so no remapping is needed.
type u64Set struct {
	slots []uint64
	n     int
	mask  uint64

	hashes []uint64 // addChunk scratch: one hash per key of the chunk
	sink   uint64   // keeps addChunk's touch loads alive
}

// newU64Set creates a set with the given initial capacity (rounded up to a
// power of two).
func newU64Set(capacity int) *u64Set {
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &u64Set{slots: make([]uint64, size), mask: uint64(size - 1)}
}

// hash mixes the key (splitmix64 finalizer).
func hashU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add inserts k and reports whether it was absent.
func (s *u64Set) add(k uint64) bool {
	return s.addHashed(k, hashU64(k))
}

// addHashed is add with the key's hash precomputed — search drivers that
// already hashed a state for shard routing skip the second mix.
func (s *u64Set) addHashed(k, h uint64) bool {
	if k == 0 {
		panic("u64Set: zero key is reserved")
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	i := h & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = k
			s.n++
			return true
		}
		if v == k {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// addChunk inserts keys in order and appends to fresh the index of every key
// that was absent — exactly the indices a per-key add loop would report, in
// the same order, duplicates inside the chunk included. It runs in two
// passes over the chunk. The first hashes every key and reads its home
// slot without looking at the value, so the loads are independent and the
// core has the chunk's cache misses in flight together instead of one per
// insert. The second is the per-key addHashed, in order, on slots that are
// by then on their way into the cache. The reserve up front means the table
// cannot move between the passes.
func (s *u64Set) addChunk(keys []uint64, fresh []int32) []int32 {
	s.reserve(len(keys))
	if cap(s.hashes) < len(keys) {
		s.hashes = make([]uint64, 2*len(keys))
	}
	hashes := s.hashes[:len(keys)]
	slots, mask := s.slots, s.mask
	var sink uint64
	for i, k := range keys {
		h := hashU64(k)
		hashes[i] = h
		sink += slots[h&mask]
	}
	s.sink = sink
	for i, k := range keys {
		if s.addHashed(k, hashes[i]) {
			fresh = append(fresh, int32(i))
		}
	}
	return fresh
}

// contains reports membership.
func (s *u64Set) contains(k uint64) bool {
	i := hashU64(k) & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if v == k {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// len returns the number of stored keys.
func (s *u64Set) len() int { return s.n }

// reset empties the set in place, keeping the table at its grown size: a
// standing worker serving repeated runs clears instead of reallocating.
func (s *u64Set) reset() {
	clear(s.slots)
	s.n = 0
}

// reserve grows the table — in a single rehash — until it can absorb n more
// keys without exceeding the load factor. The BFS drivers call it with the
// expected fanout of the coming level, so inserts inside a level never
// rehash.
func (s *u64Set) reserve(n int) {
	need := s.n + n
	if 4*need <= 3*len(s.slots) {
		return
	}
	size := len(s.slots)
	for 4*need > 3*size {
		size <<= 1
	}
	s.growTo(size)
}

func (s *u64Set) grow() { s.growTo(2 * len(s.slots)) }

func (s *u64Set) growTo(size int) {
	old := s.slots
	s.slots = make([]uint64, size)
	s.mask = uint64(len(s.slots) - 1)
	s.n = 0
	for _, v := range old {
		if v != 0 {
			i := hashU64(v) & s.mask
			for s.slots[i] != 0 {
				i = (i + 1) & s.mask
			}
			s.slots[i] = v
			s.n++
		}
	}
}
