package verify

// The expansion-core seam: external search drivers — today the distributed
// backend of internal/dverify — need to expand states, hash them for
// partitioning, order them for the minimum-violator tie-break, and move
// frontiers across process boundaries, all without re-implementing the
// per-sample semantics. Expander exposes exactly that surface in the form
// the kernel emits — flat word slabs, StateWords() words per state — so the
// narrow one-word and wide multi-word encodings flow through one driver
// loop at their own width; PackedState carries a single state where one
// crosses a control plane.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"tightcps/internal/switching"
)

// PackedState is the encoding-independent packed form of one composed
// state: narrow (one-word) states occupy word 0 with words 1..3 zero, wide
// states are the multi-word encoding verbatim. The bit layout inside the
// words depends on the set — lane clocks are as wide as its largest r needs
// — so a PackedState means something only to Expanders built from the same
// profiles and config. Neither encoding produces
// the all-zero value (an idle slot stores a nonzero occupant sentinel), so
// the zero PackedState remains the empty-slot sentinel of the hash sets.
type PackedState [wideWords]uint64

// Expander exposes a Verifier's expansion core to external search drivers.
// Its methods are read-only over the underlying Verifier and safe for
// concurrent use, except where a caller-owned buffer or scratch is passed
// in.
type Expander struct {
	v *Verifier
}

// Expander returns the verifier's expansion core.
func (v *Verifier) Expander() *Expander { return &Expander{v: v} }

// NewExpander builds the expansion core for the profiles directly (the
// worker-node entry point: nodes never call Run).
func NewExpander(profiles []*switching.Profile, cfg Config) (*Expander, error) {
	v, err := New(profiles, cfg)
	if err != nil {
		return nil, err
	}
	return v.Expander(), nil
}

// StateWords is the number of significant words per state: 1 on the narrow
// fast path, the full word count on the wide path — taken when n lanes of
// 2 + ⌈log₂ max r⌉ (+ 2 bounded) bits and the 8-bit header exceed 64 bits:
// nine applications at r = 17, seven at r = 65. It is the stride of every
// word slab this seam takes and returns, and of the wire encoding.
func (e *Expander) StateWords() int {
	if e.v.wide {
		return wideWords
	}
	return 1
}

// Initial returns the all-Steady, slot-idle state.
func (e *Expander) Initial() PackedState {
	if e.v.wide {
		return PackedState(e.v.initialWide())
	}
	return PackedState{e.v.initial()}
}

// ExpandScratch owns the expansion core's reusable buffers for one external
// search driver: the kernel's group scratch and, for SuccessorsHashedInto,
// the words of one state's successors. It is not safe for concurrent use:
// give every driver goroutine its own, as the internal searches do. The
// buffers grow to the verifier's maximum fanout and are then recycled, so
// steady-state expansion performs no allocation.
type ExpandScratch struct {
	sc expandScratch
}

// NewScratch returns a fresh scratch for ExpandWords.
func (e *Expander) NewScratch() *ExpandScratch { return &ExpandScratch{} }

// ExpandWords is the words-in/words-out expansion: s is one state in its
// StateWords() words, and its successors are appended to out — the kernel's
// own output, in the local drivers' successor order — with one Hash per
// successor appended to hashes, mixed while the words are still hot, so a
// driver that routes and filters by hash never mixes a state twice. The
// third result is the application whose deadline the expansion violated, or
// −1 when every disturbance choice stays safe; on a violation out and hashes
// are returned unchanged, so a slab built over several states keeps them.
func (e *Expander) ExpandWords(s []uint64, scr *ExpandScratch, out, hashes []uint64) ([]uint64, []uint64, int) {
	n := len(out)
	out, viol := e.expand(s, scr, out)
	if !e.v.wide {
		for _, ns := range out[n:] {
			hashes = append(hashes, hashU64(ns))
		}
		return out, hashes, viol
	}
	for i := n; i < len(out); i += wideWords {
		hashes = append(hashes, hashW(wstate(out[i:i+wideWords])))
	}
	return out, hashes, viol
}

// expand runs the kernel on one state's words and appends its successors'
// words to out.
func (e *Expander) expand(s []uint64, scr *ExpandScratch, out []uint64) ([]uint64, int) {
	var viol int
	if e.v.wide {
		out, _, viol = e.v.expandWide(wstate(s), &scr.sc, out, nil)
	} else {
		out, _, viol = e.v.successors(s[0], &scr.sc, out, nil)
	}
	return out, viol
}

// HashedState pairs a packed state with its Expander.Hash: the unit of
// SuccessorsHashedInto.
type HashedState struct {
	S PackedState
	H uint64
}

// SuccessorsHashedInto is ExpandWords for a driver that keeps its states as
// PackedState values: it appends s's successors, each with its hash, to out,
// and returns the violator like ExpandWords (out unchanged on a violation).
func (e *Expander) SuccessorsHashedInto(s PackedState, scr *ExpandScratch, out []HashedState) ([]HashedState, int) {
	sw, sc := e.StateWords(), &scr.sc
	var viol int
	sc.words, viol = e.expand(s[:sw], scr, sc.words[:0])
	n := len(out)
	out = slices.Grow(out, len(sc.words)/sw)[:n+len(sc.words)/sw]
	for i := range out[n:] {
		if hs := &out[n+i]; sw == 1 {
			hs.S, hs.H = PackedState{sc.words[i]}, hashU64(sc.words[i])
		} else {
			ws := wstate(sc.words[i*wideWords : (i+1)*wideWords])
			hs.S, hs.H = PackedState(ws), hashW(ws)
		}
	}
	return out, viol
}

// HashWords mixes a state, given in its StateWords() words, for shard
// selection and set probing. Narrow states use the one-word splitmix
// finalizer (the same function behind u64Set), wide states the chained word
// hash. Every driver of one run must partition by the same hash, which this
// method guarantees: it depends only on the profiles and config the Expander
// was built from.
func (e *Expander) HashWords(s []uint64) uint64 {
	if e.v.wide {
		return hashW(wstate(s))
	}
	return hashU64(s[0])
}

// Hash is HashWords of a PackedState.
func (e *Expander) Hash(s PackedState) uint64 { return e.HashWords(s[:e.StateWords()]) }

// LessState orders states lexicographically (word 0 most significant, the
// lessW order). For narrow states — words 1..3 zero — this coincides with
// the raw uint64 order of the one-word encoding, so the minimum-violator
// tie-break of a distributed run matches the local parallel search on
// either encoding.
func LessState(a, b PackedState) bool {
	return lessW(wstate(a), wstate(b))
}

// SortWords sorts a slab of states, StateWords() words each, ascending in
// LessState order: the canonical order of wire batches and checkpoint
// segments.
func (e *Expander) SortWords(slab []uint64) {
	if sw := e.StateWords(); sw > 1 {
		sort.Sort(wordSlab{slab, sw})
		return
	}
	slices.Sort(slab)
}

// wordSlab sorts multi-word states in place.
type wordSlab struct {
	w  []uint64
	sw int
}

func (s wordSlab) Len() int { return len(s.w) / s.sw }
func (s wordSlab) Less(i, j int) bool {
	return slices.Compare(s.w[i*s.sw:(i+1)*s.sw], s.w[j*s.sw:(j+1)*s.sw]) < 0
}
func (s wordSlab) Swap(i, j int) {
	for k := 0; k < s.sw; k++ {
		s.w[i*s.sw+k], s.w[j*s.sw+k] = s.w[j*s.sw+k], s.w[i*s.sw+k]
	}
}

// AppendWords appends the wire encoding of a slab of states to dst: its
// words verbatim, little-endian. DecodeWords reverses it.
func (e *Expander) AppendWords(dst []byte, slab []uint64) []byte {
	for _, w := range slab {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeWords appends the words of every state encoded in b (a batch built
// with AppendWords under the same profiles and config) to out.
func (e *Expander) DecodeWords(b []byte, out []uint64) ([]uint64, error) {
	if stride := 8 * e.StateWords(); len(b)%stride != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the %d-byte state stride", len(b), stride)
	}
	for ; len(b) > 0; b = b[8:] {
		out = append(out, binary.LittleEndian.Uint64(b))
	}
	return out, nil
}

// NewSet returns an empty visited set sized for the expander's encoding:
// narrow states are stored as bare words (8 bytes each), wide states as
// full multi-word keys. Not safe for concurrent use — each search driver
// owns its partition.
func (e *Expander) NewSet(capacity int) *StateSet {
	if e.v.wide {
		return &StateSet{wide: newWideSet(capacity)}
	}
	return &StateSet{narrow: newU64Set(capacity)}
}

// StateSet is an open-addressing set of packed states backing one search
// driver's visited partition. Exactly one of the underlying sets is
// non-nil, matching the encoding of the Expander that created it.
type StateSet struct {
	narrow *u64Set
	wide   *wideSet
	keys   []wstate // AddWords scratch: a wide slab as the set's keys
}

// AddWords inserts the states of a slab, in order, through the set's
// addChunk — the probe-ahead insert of the local drivers — and appends to
// fresh the index (in states) of every one that was absent: exactly the
// indices a per-state AddHashed loop would report, duplicates inside the
// slab included. The set makes room for the whole slab first.
func (s *StateSet) AddWords(slab []uint64, fresh []int32) []int32 {
	if s.wide == nil {
		return s.narrow.addChunk(slab, fresh)
	}
	s.keys = s.keys[:0]
	for i := 0; i < len(slab); i += wideWords {
		s.keys = append(s.keys, wstate(slab[i:i+wideWords]))
	}
	return s.wide.addChunk(s.keys, fresh)
}

// AddHashed inserts one state, given with its Expander.Hash, and reports
// whether it was absent.
func (s *StateSet) AddHashed(k PackedState, h uint64) bool {
	if s.wide != nil {
		return s.wide.addHashed(wstate(k), h)
	}
	return s.narrow.addHashed(k[0], h)
}

// Len returns the number of stored states.
func (s *StateSet) Len() int {
	if s.wide != nil {
		return s.wide.len()
	}
	return s.narrow.len()
}

// Reserve grows the set — in a single rehash — until it can absorb n more
// states without exceeding the load factor. Search drivers call it with the
// expected fanout of the coming level so inserts never rehash mid-level,
// exactly like the internal BFS drivers.
func (s *StateSet) Reserve(n int) {
	if s.wide != nil {
		s.wide.reserve(n)
	} else {
		s.narrow.reserve(n)
	}
}

// Reset empties the set in place, keeping the table at its grown size.
// A standing worker serving repeated runs clears its visited partition
// instead of reallocating it — the dominant per-run allocation otherwise.
func (s *StateSet) Reset() {
	if s.wide != nil {
		s.wide.reset()
	} else {
		s.narrow.reset()
	}
}
