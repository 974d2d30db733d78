package verify

// wideSet is the multi-word sibling of u64Set: an open-addressing hash set
// of wstate keys. The all-zero wstate is the empty-slot sentinel; the wide
// encoding can never produce it (the header word is nonzero whenever the
// slot is idle, and an occupant's lane is nonzero otherwise).
type wideSet struct {
	slots []wstate
	n     int
	mask  uint64

	hashes []uint64 // addChunk scratch: one hash per key of the chunk
	sink   uint64   // keeps addChunk's touch loads alive
}

// newWideSet creates a set with the given initial capacity (rounded up to a
// power of two).
func newWideSet(capacity int) *wideSet {
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &wideSet{slots: make([]wstate, size), mask: uint64(size - 1)}
}

// add inserts k and reports whether it was absent.
func (s *wideSet) add(k wstate) bool {
	return s.addHashed(k, hashW(k))
}

// addHashed is add with the key's hash precomputed (see u64Set.addHashed).
func (s *wideSet) addHashed(k wstate, h uint64) bool {
	if k == (wstate{}) {
		panic("wideSet: zero key is reserved")
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	i := h & s.mask
	for {
		v := s.slots[i]
		if v == (wstate{}) {
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
// that was absent, probing ahead exactly like u64Set.addChunk. Touching a
// home slot's first word is enough: slots are 32 bytes in a power-of-two
// table of at least 512, which the allocator aligns to a cache line or
// better, so no slot straddles two lines.
func (s *wideSet) addChunk(keys []wstate, fresh []int32) []int32 {
	s.reserve(len(keys))
	if cap(s.hashes) < len(keys) {
		s.hashes = make([]uint64, 2*len(keys))
	}
	hashes := s.hashes[:len(keys)]
	slots, mask := s.slots, s.mask
	var sink uint64
	for i := range keys {
		h := hashW(keys[i])
		hashes[i] = h
		sink += slots[h&mask][0]
	}
	s.sink = sink
	for i := range keys {
		if s.addHashed(keys[i], hashes[i]) {
			fresh = append(fresh, int32(i))
		}
	}
	return fresh
}

// contains reports membership.
func (s *wideSet) contains(k wstate) bool {
	i := hashW(k) & s.mask
	for {
		v := s.slots[i]
		if v == (wstate{}) {
			return false
		}
		if v == k {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// len returns the number of stored keys.
func (s *wideSet) len() int { return s.n }

// reset empties the set in place, keeping the table at its grown size (see
// u64Set.reset).
func (s *wideSet) reset() {
	clear(s.slots)
	s.n = 0
}

// reserve grows the table — in a single rehash — until it can absorb n more
// keys without exceeding the load factor (see u64Set.reserve).
func (s *wideSet) reserve(n int) {
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

func (s *wideSet) grow() { s.growTo(2 * len(s.slots)) }

func (s *wideSet) growTo(size int) {
	old := s.slots
	s.slots = make([]wstate, size)
	s.mask = uint64(len(s.slots) - 1)
	s.n = 0
	for _, v := range old {
		if v != (wstate{}) {
			i := hashW(v) & s.mask
			for s.slots[i] != (wstate{}) {
				i = (i + 1) & s.mask
			}
			s.slots[i] = v
			s.n++
		}
	}
}
