package verify

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// keySet is the visited set of every search driver: an open-addressing hash
// set of packed states. The all-zero key is the empty-cell sentinel; no
// state is zero (an idle slot stores a nonzero occupant sentinel, an
// occupied one puts phase Granted in the occupant's lane), so no remapping
// is needed.
//
// A cell is as wide as the keys: w bytes, little-endian, for keys below
// 2^(8w) — a verifier's states fit Verifier.keyBytes. Cell i starts at byte
// i·w, and a probe reads it as the 8 bytes from there under the width's
// mask (cellPad bytes behind the last cell keep that load in the table).
// The table is a power of two of cells whatever w is, so the hash, the
// growth schedule and the budget count cells alike at every width; only
// what a table weighs, and so where it leaves the heap, is in bytes.
//
// A table of mapTableBytes or more is mapped off the Go heap (newTable), so
// the set owns its memory: growTo hands the table it replaces back piece by
// piece as it rehashes, and whoever ends a search releases the set. Every
// set grows on one schedule, scaled by its share of the search: it doubles
// while share such tables stay under the 2 MiB line and quadruples from
// there on, up to the table of the search's state budget (grow).
type keySet struct {
	tab   []byte // size cells of w bytes, then cellPad bytes of padding
	mem   []byte // the mapping behind tab; nil for a heap table
	n     int
	size  int    // cells in the table; 0 once released
	mask  uint64 // size − 1
	w     uint64 // bytes per cell
	wmask uint64 // the low 8·w bits: what a cell holds
	// maxKeys is the most keys the search stores: its MaxStates + 1.
	maxKeys int
	// share is how many such sets the search's states are spread over: 1
	// for a sequential search, P·nodes for a lane of a P-lane node (DESIGN.md
	// §4, "Table memory").
	share int

	homes []uint64 // addChunk scratch: each key's home cell, as a byte offset
	sink  uint64   // keeps addChunk's touch loads alive

	// pieceMoved, when set, runs in growTo after the keys of every cell
	// starting in old[:moved] have moved and before the piece ending at
	// moved is handed back; tests watch the memory a growth holds through
	// it.
	pieceMoved func(old []byte, moved int)
}

// cellPad is the padding behind a table's last cell: the 8-byte load of a
// cell narrower than 8 bytes reads into it, and nothing is stored there.
const cellPad = 8

// noBudget is the keys of a set no search budget bounds: far past any table
// the process can hold, and small enough that 4× it does not overflow.
const noBudget = 1 << 48

// newKeySet creates a set of keys of width bytes (1..8) with the given
// initial capacity in cells (rounded up to a power of two), a share of 1
// and no state budget.
func newKeySet(capacity, width int) *keySet {
	s := &keySet{w: uint64(width), wmask: ^uint64(0) >> (64 - 8*width), maxKeys: noBudget, share: 1}
	size := 16
	for size < capacity {
		size <<= 1
	}
	s.setTable(size)
	return s
}

// setTable gives the set an empty table of size cells.
func (s *keySet) setTable(size int) {
	s.tab, s.mem = newTable(size*int(s.w) + cellPad)
	s.size, s.mask = size, uint64(size-1)
}

// budget tells the set the search's MaxStates: it stores at most
// maxStates + 1 keys (the one that trips the budget ends the search), so no
// growth goes past the smallest table that holds that many at ¾ load. It
// only stops growth; a table already larger keeps its size.
func (s *keySet) budget(maxStates int) { s.maxKeys = min(maxStates, noBudget) + 1 }

// tableFor is the smallest table, a power of two of at least 16 cells, that
// holds keys keys at ¾ load.
func tableFor(keys int) int {
	size := 16
	for 4*keys > 3*size {
		size <<= 1
	}
	return size
}

// mapTableBytes is the size from which a table is mapped off the heap: a
// huge page, 256 Ki cells of 8 bytes. Below it, mapping and unmapping cost
// more in fresh-page faults than the heap's reuse does: a search's first
// tables stay on the heap (DESIGN.md §4, "Table memory"). It is also the
// line of the growth schedule's 4× step (grow), which counts 8 bytes a cell
// at every width, so that growth is cell for cell the same at every width.
const mapTableBytes = 2 << 20

// tablesMapped counts the tables newTable has mapped off the heap. Only
// tests read it: one that means to cross the 2 MiB line checks it did.
var tablesMapped atomic.Int64

// release hands a mapped table back to the kernel; a heap table is left to
// the collector. The set is empty after it, with no table: its next insert
// grows one from 16 cells.
func (s *keySet) release() {
	freeTable(s.tab, s.mem)
	s.tab, s.mem, s.n, s.size = nil, nil, 0, 0
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
	if k-1 >= s.wmask {
		badKey(k)
	}
	if 4*(s.n+1) > 3*s.size {
		s.grow(s.n + 1)
	}
	if !probe(s.tab, h&s.mask*s.w, s.w, s.wmask, k) {
		return false
	}
	s.n++
	return true
}

// badKey panics on a key the set cannot hold: zero, the empty-cell
// sentinel, or one wider than the w-byte cells, which the masked compare
// would never find (its probe would not end on a full run). Only a bug
// passes one: a verifier's states fit its keyBytes.
func badKey(k uint64) {
	if k == 0 {
		panic("keySet: zero key is reserved")
	}
	panic("keySet: key wider than the table's cells")
}

// probe is the set's one probe loop: it stores k in the first empty cell of
// its run in tab (cells of w bytes under wmask, with at least one empty,
// then cellPad bytes), starting at byte off, its home cell's (h&mask)·w for
// its hash h, unless the run holds k already, and reports whether it stored
// it. A cell is read as the 8 little-endian bytes from its start, and an
// empty one is written back as those bytes with k or'ed in: only the cell's
// own w bytes change. A cell starts below len(tab) − cellPad, so its load
// stays in the table, and on Linux cellAt does not check it: the checks
// spilled the loop's values out of registers, and hits in a table in cache
// took 15% longer. It is small enough to inline into the loops that call it
// per key.
func probe(tab []byte, off, w, wmask, k uint64) bool {
	end := uint64(len(tab) - cellPad)
	for {
		c := cellAt(tab, off)[:]
		x := binary.LittleEndian.Uint64(c)
		switch x & wmask {
		case 0:
			binary.LittleEndian.PutUint64(c, x|k)
			return true
		case k:
			return false
		}
		if off += w; off == end {
			off = 0
		}
	}
}

// addChunk inserts keys in order and appends to fresh the index of every key
// that was absent — exactly the indices a per-key add loop would report, in
// the same order, duplicates inside the chunk included. It runs in two
// passes over the chunk. The first hashes every key to its home cell and
// reads the cell's first byte without looking at the value, so the loads are
// independent and the core has the chunk's cache misses in flight together
// instead of one per insert. The second resolves the keys in
// order, running probe inline on cells that are by then on their way into
// the cache. The growth up front makes room for every key, so the table
// cannot move between the passes and the second needs no per-key load
// check.
func (s *keySet) addChunk(keys []uint64, fresh []int32) []int32 {
	if need := s.n + len(keys); 4*need > 3*s.size {
		s.grow(need)
	}
	if cap(s.homes) < len(keys) {
		s.homes = make([]uint64, 2*len(keys))
	}
	homes := s.homes[:len(keys)]
	tab, w, mask, wmask := s.tab, s.w, s.mask, s.wmask
	var sink uint64
	for i, k := range keys {
		if k-1 >= wmask {
			badKey(k)
		}
		off := hashKey(k) & mask * w
		homes[i] = off
		sink += uint64(tab[off])
	}
	s.sink = sink
	n := len(fresh)
	fresh = slices.Grow(fresh, len(keys))
	out, j := fresh[n:n+len(keys)], 0
	for i, k := range keys {
		if probe(tab, homes[i], w, wmask, k) {
			out[j] = int32(i)
			j++
		}
	}
	s.n += j
	return fresh[:n+j]
}

// len returns the number of stored keys.
func (s *keySet) len() int { return s.n }

// reserve makes room, in a single rehash (grow), for an estimated n more
// keys, but not for keys past the search's budget, which it never stores.
// The BFS drivers call it with the expected fanout of the coming level, so
// inserts inside a level never rehash.
func (s *keySet) reserve(n int) {
	if need := min(s.n+n, s.maxKeys); 4*need > 3*s.size {
		s.grow(need)
	}
}

// grow rehashes the table, once, for need keys. The size is the doubling
// policy's — the smallest power of two of at least twice the table, and of
// at least 16 cells (a released set has none), that holds them at ¾ load —
// but once share such tables reach the mapped sizes the growth goes to at
// least 4× the table, one rehash where doubling takes two: fewer keys moved
// and fresh pages faulted, for a table at most twice the doubling policy's.
// A set of share s thus follows the sequential table's sizes divided by s,
// and a node's tables add up to the sequential table. The sizes count
// cells and the mapped sizes 8 bytes a cell, so the schedule is the same at
// every cell width. No growth goes past
// the budget's table (tableFor(maxKeys)), unless need keys do not fit in it
// at all: the chunk that takes a search past its budget still lands, at
// more than ¾ load.
func (s *keySet) grow(need int) {
	old := s.size
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

// rehashPiece is the bytes of a mapped old table growTo hands back at a
// time: one huge page where the kernel may back tables with them, 64 KiB
// (smallPiece) otherwise (tablePiece). Either is whole pages of a table
// that starts on a huge-page boundary and is a power of two of at least 2
// MiB. A piece must end on a page boundary: the kernel rounds a length up
// to the page, and a piece ending mid-page would zero keys not yet moved.
var rehashPiece = tablePiece()

// smallPiece is rehashPiece where tables sit on small pages: 64 KiB.
const smallPiece = 64 << 10

// growTo moves the keys into a table of size cells, walking the old table
// in order, a piece of rehashPiece bytes at a time, and hands each piece of
// a mapped old table back to the kernel once its keys have moved
// (releasePart). A cell may straddle two pieces, so a piece goes back only
// once every cell that starts in it has moved; the last piece takes the
// padding. A key at old cell i lands near cell i + k·len(old) of the new
// table, for each k below the growth factor, so the new table's pages fault
// in as the old one's go back: a growth holds the new table plus one piece,
// not both tables (DESIGN.md §4, "Table memory", Growth). A heap table is
// left to the collector whole.
func (s *keySet) growTo(size int) {
	old, oldMem := s.tab, s.mem
	cells := s.size * int(s.w) // the old table's bytes of cells
	s.setTable(size)
	tab, w, mask, wmask := s.tab, s.w, s.mask, s.wmask
	next := 0 // the byte offset of the next old cell to move
	for start := 0; start < cells; start += rehashPiece {
		end := start + rehashPiece
		if end >= cells {
			end = len(old)
		}
		for ; next < min(end, cells); next += int(w) {
			if k := binary.LittleEndian.Uint64(old[next:]) & wmask; k != 0 {
				probe(tab, hashKey(k)&mask*w, w, wmask, k)
			}
		}
		if s.pieceMoved != nil {
			s.pieceMoved(old, end)
		}
		releasePart(old[start:end], oldMem)
	}
	freeTable(nil, oldMem) // every piece is handed back already
}
