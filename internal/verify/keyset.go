package verify

import "sync/atomic"

// keySet is the visited set of every search driver: an open-addressing hash
// set of packed states. The all-zero key is the empty-slot sentinel; no
// state is zero (an idle slot stores a nonzero occupant sentinel, an
// occupied one puts phase Granted in the occupant's lane), so no remapping
// is needed.
//
// A table of mapTableBytes or more is mapped off the Go heap (newTable), so
// the set owns its memory: growTo hands the table it replaces back piece by
// piece as it rehashes, and whoever ends a search releases the set. Every
// set grows on one schedule, scaled by its share of the search: it doubles
// while share such tables stay under the 2 MiB line and quadruples from
// there on, up to the table of the search's state budget (grow).
type keySet struct {
	slots []uint64
	mem   []byte // the mapping behind slots; nil for a heap table
	n     int
	mask  uint64
	// maxKeys is the most keys the search stores: its MaxStates + 1.
	maxKeys int
	// share is how many such sets the search's states are spread over: 1
	// for a sequential search, P·nodes for a lane of a P-lane node (DESIGN.md
	// §4, "Table memory").
	share int

	hashes []uint64 // addChunk scratch: one hash per key of the chunk
	sink   uint64   // keeps addChunk's touch loads alive

	// pieceMoved, when set, runs in growTo after the keys of old[:moved]
	// have moved and before the last piece of them is handed back; tests
	// watch the memory a growth holds through it.
	pieceMoved func(old []uint64, moved int)
}

// noBudget is the keys of a set no search budget bounds: far past any table
// the process can hold, and small enough that 4× it does not overflow.
const noBudget = 1 << 48

// newKeySet creates a set with the given initial capacity (rounded up to a
// power of two), a share of 1 and no state budget.
func newKeySet(capacity int) *keySet {
	size := 16
	for size < capacity {
		size <<= 1
	}
	s := &keySet{mask: uint64(size - 1), maxKeys: noBudget, share: 1}
	s.slots, s.mem = newTable(size)
	return s
}

// budget tells the set the search's MaxStates: it stores at most
// maxStates + 1 keys (the one that trips the budget ends the search), so no
// growth goes past the smallest table that holds that many at ¾ load. It
// only stops growth; a table already larger keeps its size.
func (s *keySet) budget(maxStates int) { s.maxKeys = min(maxStates, noBudget) + 1 }

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
// huge page, 256 Ki slots. Below it, mapping and
// unmapping cost more in fresh-page faults than the heap's reuse does: a
// search's first tables stay on the heap (DESIGN.md §4, "Table memory").
const mapTableBytes = 2 << 20

// tablesMapped counts the tables newTable has mapped off the heap. Only
// tests read it: one that means to cross the 2 MiB line checks it did.
var tablesMapped atomic.Int64

// release hands a mapped table back to the kernel; a heap table is left to
// the collector. The set is empty after it, with no table: its next insert
// grows one from 16 slots.
func (s *keySet) release() {
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

// hashKey mixes a state for partitioning and probing: every bit of the
// word diffuses into the owner and the probe index. A state's shard
// (ShardOf: its owner node) and its partition within a node are functions
// of it; TestStateKeyHashPinned holds its values. The sets' hot loops
// inline it.
func hashKey(k uint64) uint64 { return mix(k) }

// add inserts k and reports whether it was absent.
func (s *keySet) add(k uint64) bool { return s.addHashed(k, hashKey(k)) }

// addHashed is add with the key's hash precomputed — search drivers that
// already hashed a state for partitioning skip the second mix.
func (s *keySet) addHashed(k, h uint64) bool {
	if k == 0 {
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
func probe(slots []uint64, mask uint64, k, h uint64) bool {
	for i := h & mask; ; i = (i + 1) & mask {
		switch slots[i] {
		case 0:
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
// instead of one per insert. The second resolves the keys in
// order, running probe inline on slots that are by then on their way into
// the cache. The growth up front makes room for every key, so the table
// cannot move between the passes and the second needs no per-key load
// check.
func (s *keySet) addChunk(keys []uint64, fresh []int32) []int32 {
	if need := s.n + len(keys); 4*need > 3*len(s.slots) {
		s.grow(need)
	}
	if cap(s.hashes) < len(keys) {
		s.hashes = make([]uint64, 2*len(keys))
	}
	hashes := s.hashes[:len(keys)]
	slots, mask := s.slots, s.mask
	var sink uint64
	for i, k := range keys {
		if k == 0 {
			panic("keySet: zero key is reserved")
		}
		h := hashKey(k)
		hashes[i] = h
		sink += slots[h&mask]
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
func (s *keySet) len() int { return s.n }

// reserve makes room, in a single rehash (grow), for an estimated n more
// keys, but not for keys past the search's budget, which it never stores.
// The BFS drivers call it with the expected fanout of the coming level, so
// inserts inside a level never rehash.
func (s *keySet) reserve(n int) {
	if need := min(s.n+n, s.maxKeys); 4*need > 3*len(s.slots) {
		s.grow(need)
	}
}

// grow rehashes the table, once, for need keys. The size is the doubling
// policy's — the smallest power of two of at least twice the table, and of
// at least 16 slots (a released set has none), that holds them at ¾ load —
// but once share such tables reach the mapped sizes the growth goes to at
// least 4× the table, one rehash where doubling takes two: fewer keys moved
// and fresh pages faulted, for a table at most twice the doubling policy's.
// A set of share s thus follows the sequential table's sizes divided by s,
// and a node's tables add up to the sequential table. No growth goes past
// the budget's table (tableFor(maxKeys)), unless need keys do not fit in it
// at all: the chunk that takes a search past its budget still lands, at
// more than ¾ load.
func (s *keySet) grow(need int) {
	old := len(s.slots)
	size := max(2*old, 16)
	for 4*need > 3*size {
		size <<= 1
	}
	if 8*size*s.share >= mapTableBytes {
		size = max(size, 4*old)
	}
	size = min(size, tableFor(s.maxKeys))
	for size <= need {
		size <<= 1
	}
	if size > old {
		if tableGrown != nil {
			tableGrown(s, size)
		}
		s.growTo(size)
	}
}

// tableGrown, when set, runs in grow before every rehash with the set and
// its new size; tests watch the growth schedule through it. The lanes of a
// node grow at once, so it must be safe for concurrent use.
var tableGrown func(s *keySet, size int)

// rehashPiece is the slots growTo moves between two hand-backs of a mapped
// old table: one huge page where the kernel may back tables with them, 64
// KiB (smallPiece) otherwise (tablePiece). Either is whole pages of a table
// that starts on a huge-page boundary and is a power of two of at least 2
// MiB. A piece must end on a page boundary: the kernel rounds a length up
// to the page, and a piece ending mid-page would zero keys not yet moved.
var rehashPiece = tablePiece()

// smallPiece is rehashPiece where tables sit on small pages: 64 KiB.
const smallPiece = 8192

// growTo moves the keys into a table of size slots, walking the old table
// in order, a piece at a time, and hands each piece of a mapped old table
// back to the kernel once its keys have moved (releasePart). A key at old
// slot i lands near slot i + k·len(old) of the new table, for each k below
// the growth factor, so the new table's pages fault in as the old one's go
// back: a growth holds the new table plus one piece, not both tables
// (DESIGN.md §4, "Table memory", Growth). A heap table is left to the
// collector whole.
func (s *keySet) growTo(size int) {
	old, oldMem := s.slots, s.mem
	s.slots, s.mem = newTable(size)
	s.mask = uint64(size - 1)
	for start := 0; start < len(old); start += rehashPiece {
		piece := old[start:min(start+rehashPiece, len(old))]
		for _, v := range piece {
			if v != 0 {
				probe(s.slots, s.mask, v, hashKey(v))
			}
		}
		if s.pieceMoved != nil {
			s.pieceMoved(old, start+len(piece))
		}
		releasePart(piece, oldMem)
	}
	freeTable(nil, oldMem) // every piece is handed back already
}
