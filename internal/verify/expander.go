package verify

// The expansion-core seam: external search drivers — today the distributed
// backend of internal/dverify — need to expand states, hash them for
// partitioning, order them for the minimum-violator tie-break, and move
// frontiers across process boundaries, all without re-implementing the
// per-sample semantics. Expander exposes exactly that surface as flat word
// slabs, StateWords() words per state — the kernel's keys laid end to end,
// converted at the seam's edge — so the narrow one-word and wide multi-word
// encodings flow through one driver loop at their own width; PackedState
// carries a single state where one crosses a control plane.

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
		return PackedState(initialState[[wideWords]uint64](e.v))
	}
	return PackedState{initialState[[1]uint64](e.v)[0]}
}

// ExpandScratch owns the expansion core's reusable buffers for one external
// search driver: the kernel's group scratch, the successors of one state as
// the encoding's keys, which the seam converts at its edge, and for
// SuccessorsHashedInto their words and hashes. It is not safe for
// concurrent use: give every driver goroutine its own, as the internal
// searches do. The buffers grow to the verifier's maximum fanout and are
// then recycled, so steady-state expansion performs no allocation.
type ExpandScratch struct {
	sc            expandScratch
	narrow        [][1]uint64
	wide          [][wideWords]uint64
	words, hashes []uint64
}

// NewScratch returns a fresh scratch for ExpandWords.
func (e *Expander) NewScratch() *ExpandScratch { return &ExpandScratch{} }

// ExpandWords is the words-in/words-out expansion: s is one state in its
// StateWords() words, and its successors' words are appended to out, in the
// local drivers' successor order, with one Hash per successor appended to
// hashes, mixed while the words are still hot, so a driver that routes and
// filters by hash never mixes a state twice. The third result is the
// application whose deadline the expansion violated, or −1 when every
// disturbance choice stays safe; on a violation out and hashes are returned
// unchanged, so a slab built over several states keeps them.
func (e *Expander) ExpandWords(s []uint64, scr *ExpandScratch, out, hashes []uint64) ([]uint64, []uint64, int) {
	if e.v.wide {
		return expandWords(e.v, s, &scr.sc, &scr.wide, out, hashes)
	}
	return expandWords(e.v, s, &scr.sc, &scr.narrow, out, hashes)
}

// expandWords runs the kernel on one state's words into succ, then appends
// every successor's words and hash to out and hashes.
func expandWords[K stateKey](v *Verifier, s []uint64, sc *expandScratch, succ *[]K, out, hashes []uint64) ([]uint64, []uint64, int) {
	var viol int
	*succ, _, viol = successors(v, K(s), sc, (*succ)[:0], nil)
	for _, k := range *succ {
		for i := 0; i < len(k); i++ {
			out = append(out, k[i])
		}
		hashes = append(hashes, hashKey(k))
	}
	return out, hashes, viol
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
	sw := e.StateWords()
	var viol int
	scr.words, scr.hashes, viol = e.ExpandWords(s[:sw], scr, scr.words[:0], scr.hashes[:0])
	for i, h := range scr.hashes {
		hs := HashedState{H: h}
		copy(hs.S[:], scr.words[i*sw:(i+1)*sw])
		out = append(out, hs)
	}
	return out, viol
}

// HashWords mixes a state, given in its StateWords() words, for shard
// selection and set probing — hashKey, the hash behind the visited sets and
// the local drivers' partitions. Every driver of one run must partition by
// the same hash, which this method guarantees: it depends only on the
// profiles and config the Expander was built from.
func (e *Expander) HashWords(s []uint64) uint64 {
	if e.v.wide {
		return hashKey([wideWords]uint64(s))
	}
	return hashKey([1]uint64(s))
}

// Hash is HashWords of a PackedState.
func (e *Expander) Hash(s PackedState) uint64 { return e.HashWords(s[:e.StateWords()]) }

// LessState orders states lexicographically, word 0 most significant: the
// lessKey order. For narrow states — words 1..3 zero — this coincides with
// the raw uint64 order of the one-word encoding, so the minimum-violator
// tie-break of a distributed run matches the local parallel search on
// either encoding.
func LessState(a, b PackedState) bool {
	return lessKey([wideWords]uint64(a), [wideWords]uint64(b))
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
// with AppendWords under the same profiles and config) to out. It refuses
// the all-zero state, which no encoding produces: the visited sets reserve
// it as their empty-slot sentinel, and bytes from a peer or a disk must not
// reach them with it.
func (e *Expander) DecodeWords(b []byte, out []uint64) ([]uint64, error) {
	sw := e.StateWords()
	if len(b)%(8*sw) != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the %d-byte state stride", len(b), 8*sw)
	}
	n := len(out)
	for i := 0; len(b) > 0; i++ {
		var or uint64
		for k := 0; k < sw; k++ {
			w := binary.LittleEndian.Uint64(b[8*k:])
			or |= w
			out = append(out, w)
		}
		if or == 0 {
			return out[:n], fmt.Errorf("verify: state %d of the batch is the all-zero state, which no encoding produces", i)
		}
		b = b[8*sw:]
	}
	return out, nil
}

// NewSet returns an empty visited set for the expander's encoding: narrow
// states are stored as one word (8 bytes each), wide states as full
// multi-word keys. Not safe for concurrent use — each search driver owns
// its partition.
func (e *Expander) NewSet(capacity int) *StateSet {
	if e.v.wide {
		return &StateSet{newKeySet[[wideWords]uint64](capacity)}
	}
	return &StateSet{newKeySet[[1]uint64](capacity)}
}

// StateSet is an open-addressing set of packed states backing one search
// driver's visited partition: the local drivers' keySet, of the encoding of
// the Expander that created it.
type StateSet struct {
	set wordSet
}

// wordSet is a keySet seen through the word seam.
type wordSet interface {
	addWords(slab []uint64, fresh []int32) []int32
	addPacked(k PackedState, h uint64) bool
	len() int
	reserve(n int)
	reset()
}

// addWords is addChunk over a slab of words, len(K) per key.
func (s *keySet[K]) addWords(slab []uint64, fresh []int32) []int32 {
	var k K
	s.keys = s.keys[:0]
	for i := 0; i < len(slab); i += len(k) {
		s.keys = append(s.keys, K(slab[i:i+len(k)]))
	}
	return s.addChunk(s.keys, fresh)
}

// addPacked is addHashed of a PackedState's significant words.
func (s *keySet[K]) addPacked(k PackedState, h uint64) bool { return s.addHashed(K(k[:]), h) }

// AddWords inserts the states of a slab, in order, through the set's
// addChunk — the probe-ahead insert of the local drivers — and appends to
// fresh the index (in states) of every one that was absent: exactly the
// indices a per-state AddHashed loop would report, duplicates inside the
// slab included. The set makes room for the whole slab first.
func (s *StateSet) AddWords(slab []uint64, fresh []int32) []int32 { return s.set.addWords(slab, fresh) }

// AddHashed inserts one state, given with its Expander.Hash, and reports
// whether it was absent.
func (s *StateSet) AddHashed(k PackedState, h uint64) bool { return s.set.addPacked(k, h) }

// Len returns the number of stored states.
func (s *StateSet) Len() int { return s.set.len() }

// Reserve grows the set — in a single rehash — until it can absorb n more
// states without exceeding the load factor. Search drivers call it with the
// expected fanout of the coming level so inserts never rehash mid-level,
// exactly like the internal BFS drivers.
func (s *StateSet) Reserve(n int) { s.set.reserve(n) }

// Reset empties the set in place, keeping the table at its grown size.
// A standing worker serving repeated runs clears its visited partition
// instead of reallocating it — the dominant per-run allocation otherwise.
func (s *StateSet) Reset() { s.set.reset() }
