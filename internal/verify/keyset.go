package verify

import "sync/atomic"

// keySet is the visited set of every search driver: an open-addressing hash
// set of packed states, one body for both encodings. The all-zero key is the
// empty-slot sentinel; no encoding produces it (an idle slot stores a
// nonzero occupant sentinel, an occupied one puts phase Granted in the
// occupant's lane), so no remapping is needed.
//
// A table of mapTableBytes or more is mapped off the Go heap (newTable), so
// the set owns its memory: growTo unmaps the table it replaces, and whoever
// ends a search releases the set. Growth doubles a table while it stays on
// the heap, and quadruples it from the mapped sizes on unless the set is a
// lane's (doubling), up to the table of the search's state budget (grow).
type keySet[K stateKey] struct {
	slots []K
	mem   []byte // the mapping behind slots; nil for a heap table
	n     int
	mask  uint64
	// maxKeys is the most keys the search stores: its MaxStates + 1.
	maxKeys int
	// doubling keeps growth to the doubling policy past the 2 MiB line too:
	// a lane's table, one of P that grow in the same level (DESIGN.md §4,
	// "Table memory").
	doubling bool

	hashes []uint64 // addChunk scratch: one hash per key of the chunk
	sink   uint64   // keeps addChunk's touch loads alive
}

// noBudget is the keys of a set no search budget bounds: far past any table
// the process can hold, and small enough that 4× it does not overflow.
const noBudget = 1 << 48

// newKeySet creates a set with the given initial capacity (rounded up to a
// power of two) and no state budget.
func newKeySet[K stateKey](capacity int) *keySet[K] {
	size := 16
	for size < capacity {
		size <<= 1
	}
	s := &keySet[K]{mask: uint64(size - 1), maxKeys: noBudget}
	s.slots, s.mem = newTable[K](size)
	return s
}

// budget tells the set the search's MaxStates: it stores at most
// maxStates + 1 keys (the one that trips the budget ends the search), so no
// growth goes past the smallest table that holds that many at ¾ load. It
// only stops growth; a table already larger keeps its size.
func (s *keySet[K]) budget(maxStates int) { s.maxKeys = min(maxStates, noBudget) + 1 }

// tableFor is the smallest table, a power of two of at least 16 slots, that
// holds keys keys at ¾ load.
func tableFor(keys int) int {
	size := 16
	for 4*keys > 3*size {
		size <<= 1
	}
	return size
}

// mapTableBytes is the size from which a table is mapped off the heap: a
// huge page, 256 Ki narrow slots; the first mapped wide table has 128 Ki
// slots (3 MiB), its heap predecessor 1.5 MiB. Below it, mapping and
// unmapping cost more in fresh-page faults than the heap's reuse does: a
// search's first tables stay on the heap (DESIGN.md §4, "Table memory").
const mapTableBytes = 2 << 20

// tablesMapped counts the tables newTable has mapped off the heap. Only
// tests read it: one that means to cross the 2 MiB line checks it did.
var tablesMapped atomic.Int64

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
		s.grow(s.n + 1)
	}
	if !probe(s.slots, s.mask, k, h) {
		return false
	}
	s.n++
	return true
}

// probe is the set's one probe loop: it stores k, whose hash is h, in the
// first empty slot of its run in slots (mask + 1 of them, with at least one
// empty) unless the run holds k already, and reports whether it stored it.
// It is small enough to inline into the loops that call it per key.
func probe[K stateKey](slots []K, mask uint64, k K, h uint64) bool {
	var zero K
	for i := h & mask; ; i = (i + 1) & mask {
		switch slots[i] {
		case zero:
			slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// addChunk inserts keys in order and appends to fresh the index of every key
// that was absent — exactly the indices a per-key add loop would report, in
// the same order, duplicates inside the chunk included. It runs in two
// passes over the chunk. The first hashes every key and reads its home
// slot's first word without looking at the value, so the loads are
// independent and the core has the chunk's cache misses in flight together
// instead of one per insert (a 24-byte wide slot crosses a cache line at
// two of every eight offsets; touching its last word too measured no
// faster). The second resolves the keys in
// order, running probe inline on slots that are by then on their way into
// the cache. The growth up front makes room for every key, so the table
// cannot move between the passes and the second needs no per-key load
// check.
func (s *keySet[K]) addChunk(keys []K, fresh []int32) []int32 {
	if need := s.n + len(keys); 4*need > 3*len(s.slots) {
		s.grow(need)
	}
	if cap(s.hashes) < len(keys) {
		s.hashes = make([]uint64, 2*len(keys))
	}
	hashes := s.hashes[:len(keys)]
	slots, mask := s.slots, s.mask
	var sink uint64
	var zero K
	for i, k := range keys {
		if k == zero {
			panic("keySet: zero key is reserved")
		}
		h := hashKey(k)
		hashes[i] = h
		sink += slots[h&mask][0]
	}
	s.sink = sink
	n := len(fresh)
	for i, k := range keys {
		if probe(slots, mask, k, hashes[i]) {
			fresh = append(fresh, int32(i))
		}
	}
	s.n += len(fresh) - n
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

// reserve makes room, in a single rehash (grow), for an estimated n more
// keys, but not for keys past the search's budget, which it never stores.
// The BFS drivers call it with the expected fanout of the coming level, so
// inserts inside a level never rehash.
func (s *keySet[K]) reserve(n int) {
	if need := min(s.n+n, s.maxKeys); 4*need > 3*len(s.slots) {
		s.grow(need)
	}
}

// grow rehashes the table, once, for need keys. The size is the doubling
// policy's — the smallest power of two of at least twice the table that
// holds them at ¾ load — but a growth that reaches the mapped sizes goes to
// at least 4× the table, one rehash where doubling takes two: fewer keys
// moved and fresh pages faulted, for a table at most twice the doubling
// policy's. A lane's table (doubling) keeps to the doubling policy: its
// node's P tables would each overshoot in the same level. No growth goes
// past the budget's table (tableFor(maxKeys)), unless need keys do not fit
// in it at all: the chunk that takes a search past its budget still lands,
// at more than ¾ load.
func (s *keySet[K]) grow(need int) {
	old := len(s.slots)
	size := 2 * old
	for 4*need > 3*size {
		size <<= 1
	}
	var k K
	if !s.doubling && 8*len(k)*size >= mapTableBytes {
		size = max(size, 4*old)
	}
	size = min(size, tableFor(s.maxKeys))
	for size <= need {
		size <<= 1
	}
	if size > old {
		s.growTo(size)
	}
}

// growTo moves the keys into a table of size slots and frees the old table
// as soon as the rehash is done.
func (s *keySet[K]) growTo(size int) {
	old, oldMem := s.slots, s.mem
	s.slots, s.mem = newTable[K](size)
	s.mask = uint64(size - 1)
	var zero K
	for _, v := range old {
		if v != zero {
			probe(s.slots, s.mask, v, hashKey(v))
		}
	}
	freeTable(old, oldMem)
}
