package verify

// keySet is the visited set of every search driver: an open-addressing hash
// set of packed states, one body for both encodings. The all-zero key is the
// empty-slot sentinel; no encoding produces it (an idle slot stores a
// nonzero occupant sentinel, an occupied one puts phase Granted in the
// occupant's lane), so no remapping is needed.
//
// A table of mapTableBytes or more is mapped off the Go heap (newTable), so
// the set owns its memory: growTo unmaps the table it replaces, and whoever
// ends a search releases the set.
type keySet[K stateKey] struct {
	slots []K
	mem   []byte // the mapping behind slots; nil for a heap table
	n     int
	mask  uint64

	hashes []uint64 // addChunk scratch: one hash per key of the chunk
	sink   uint64   // keeps addChunk's touch loads alive
}

// newKeySet creates a set with the given initial capacity (rounded up to a
// power of two).
func newKeySet[K stateKey](capacity int) *keySet[K] {
	size := 16
	for size < capacity {
		size <<= 1
	}
	s := &keySet[K]{mask: uint64(size - 1)}
	s.slots, s.mem = newTable[K](size)
	return s
}

// mapTableBytes is the size from which a table is mapped off the heap: a
// huge page, 256 Ki narrow slots or 64 Ki wide ones. Below it, mapping and
// unmapping cost more in fresh-page faults than the heap's reuse does: a
// search's first tables, and every lane partition of a case-study slot,
// stay on the heap (DESIGN.md §4, "Table memory").
const mapTableBytes = 2 << 20

// release hands a mapped table back to the kernel. The set is empty and
// unusable after it; a heap table is left to the collector.
func (s *keySet[K]) release() {
	freeTable(s.slots, s.mem)
	s.slots, s.mem, s.n = nil, nil, 0
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey mixes a state for partitioning and probing: mix of the one word
// (the chain from zero), or mix chained from a seed across the words of a
// wide key, so every bit of every word diffuses into the owner and the probe
// index. A state's shard (ShardOf: its owner node and checkpoint segment)
// and its partition within a node are functions of it;
// TestStateKeyHashPinned holds its values. Its shape is deliberate
// (DESIGN.md §4, "Probe-ahead inserts"): one loop for both widths keeps it
// under the inliner's budget, so the sets' hot loops inline it, and testing
// at the bottom leaves no loop in the narrow instantiation.
func hashKey[K stateKey](k K) uint64 {
	var h uint64
	if len(k) > 1 {
		h = 0x9e3779b97f4a7c15
	}
	for i := 0; ; i++ {
		h = mix(h ^ k[i])
		if i == len(k)-1 {
			return h
		}
	}
}

// lessKey orders states lexicographically, word 0 most significant — the
// raw uint64 order on one word — for the minimum-violator tie-break.
func lessKey[K stateKey](a, b K) bool {
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// add inserts k and reports whether it was absent.
func (s *keySet[K]) add(k K) bool { return s.addHashed(k, hashKey(k)) }

// addHashed is add with the key's hash precomputed — search drivers that
// already hashed a state for partitioning skip the second mix.
func (s *keySet[K]) addHashed(k K, h uint64) bool {
	var zero K
	if k == zero {
		panic("keySet: zero key is reserved")
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.growTo(2 * len(s.slots))
	}
	i := h & s.mask
	for {
		v := s.slots[i]
		if v == zero {
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
// slot's first word without looking at the value, so the loads are
// independent and the core has the chunk's cache misses in flight together
// instead of one per insert (a wide slot is 32 bytes in a power-of-two table
// of at least 512, which the allocator aligns to a cache line or better, so
// the first word's line is the slot's). The second is the per-key addHashed,
// in order, on slots that are by then on their way into the cache. The
// reserve up front means the table cannot move between the passes.
func (s *keySet[K]) addChunk(keys []K, fresh []int32) []int32 {
	s.reserve(len(keys))
	if cap(s.hashes) < len(keys) {
		s.hashes = make([]uint64, 2*len(keys))
	}
	hashes := s.hashes[:len(keys)]
	slots, mask := s.slots, s.mask
	var sink uint64
	for i, k := range keys {
		h := hashKey(k)
		hashes[i] = h
		sink += slots[h&mask][0]
	}
	s.sink = sink
	for i, k := range keys {
		if s.addHashed(k, hashes[i]) {
			fresh = append(fresh, int32(i))
		}
	}
	return fresh
}

// len returns the number of stored keys.
func (s *keySet[K]) len() int { return s.n }

// reset empties the set in place, keeping the table at its grown size: a
// standing mesh worker serving repeated runs clears instead of reallocating.
func (s *keySet[K]) reset() {
	clear(s.slots)
	s.n = 0
}

// reserve grows the table — in a single rehash — until it can absorb n more
// keys without exceeding the load factor. The BFS drivers call it with the
// expected fanout of the coming level, so inserts inside a level never
// rehash.
func (s *keySet[K]) reserve(n int) {
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

// growTo moves the keys into a table of size slots and frees the old table
// as soon as the rehash is done.
func (s *keySet[K]) growTo(size int) {
	old, oldMem := s.slots, s.mem
	s.slots, s.mem = newTable[K](size)
	s.mask = uint64(size - 1)
	var zero K
	for _, v := range old {
		if v == zero {
			continue
		}
		i := hashKey(v) & s.mask
		for s.slots[i] != zero {
			i = (i + 1) & s.mask
		}
		s.slots[i] = v
	}
	freeTable(old, oldMem)
}
