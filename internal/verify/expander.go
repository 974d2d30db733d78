package verify

// The expansion-core seam: external search drivers — today the distributed
// backend of internal/dverify — need to expand states, hash them for
// partitioning, order them for the minimum-violator tie-break, and move
// frontiers across process boundaries, all without re-implementing the
// per-sample semantics. Expander exposes exactly that surface over a single
// encoding-independent state type, so the narrow one-word and wide
// multi-word encodings flow through one driver loop.

import (
	"encoding/binary"
	"fmt"
	"slices"

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
// nine applications at r = 17, seven at r = 65. It sizes the wire encoding
// of AppendState/DecodeStates.
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

// ExpandScratch owns the expansion core's reusable buffer — the words of
// one state's successors, before they are hashed — for one external search
// driver. A scratch is not safe for concurrent use: give every driver
// goroutine its own, exactly as the internal searches give one to every BFS
// worker. The buffer grows to the verifier's maximum fanout and is then
// recycled, so steady-state expansion through SuccessorsHashedInto performs
// no allocation.
type ExpandScratch struct {
	sc expandScratch
}

// NewScratch returns a fresh scratch for SuccessorsHashedInto.
func (e *Expander) NewScratch() *ExpandScratch { return &ExpandScratch{} }

// HashedState pairs a packed state with its Expander.Hash. It is the unit
// of the batched-hashing expansion path: SuccessorsHashedInto mixes each
// successor while it is still hot from the packing sweep, and the driver
// carries the hash from shard routing through the send filter to the
// visited-set probe — one mix per expanded state on the whole hot path.
type HashedState struct {
	S PackedState
	H uint64
}

// SuccessorsHashedInto appends s's successors, each with its hash, to out
// and returns the extended slice together with the index of the application
// whose deadline the expansion violated, or −1 when every disturbance choice
// stays safe. It runs the same kernel as the local drivers, in the same
// successor order, and mixes each successor while its words are still hot,
// so callers that route or dedup by hash never mix a state twice. On a
// violation out is returned unchanged — no partial successors are appended —
// so callers accumulating successors from several states keep the earlier
// ones. The scratch carries the word buffer between calls; its contents are
// overwritten on every call.
func (e *Expander) SuccessorsHashedInto(s PackedState, scr *ExpandScratch, out []HashedState) ([]HashedState, int) {
	v, sc := e.v, &scr.sc
	var viol int
	if v.wide {
		sc.words, _, viol = v.expandWide(wstate(s), sc, sc.words[:0], nil)
		for i := 0; i < len(sc.words); i += wideWords {
			ws := wstate(sc.words[i : i+wideWords])
			out = append(out, HashedState{S: PackedState(ws), H: hashW(ws)})
		}
		return out, viol
	}
	sc.words, _, viol = v.successors(s[0], sc, sc.words[:0], nil)
	n := len(out)
	out = slices.Grow(out, len(sc.words))[:n+len(sc.words)]
	for i, ns := range sc.words {
		h := &out[n+i]
		h.S, h.H = PackedState{ns}, hashU64(ns)
	}
	return out, viol
}

// Hash mixes a state for shard selection and set probing. Narrow states use
// the one-word splitmix finalizer (the same function behind u64Set), wide
// states the chained word hash. Every driver of one run must partition by
// the same hash, which this method guarantees: it depends only on the
// profiles and config the Expander was built from.
func (e *Expander) Hash(s PackedState) uint64 {
	if e.v.wide {
		return hashW(wstate(s))
	}
	return hashU64(s[0])
}

// LessState orders states lexicographically (word 0 most significant, the
// lessW order). For narrow states — words 1..3 zero — this coincides with
// the raw uint64 order of the one-word encoding, so the minimum-violator
// tie-break of a distributed run matches the local parallel search on
// either encoding.
func LessState(a, b PackedState) bool {
	return lessW(wstate(a), wstate(b))
}

// AppendState appends the wire encoding of s to dst: StateWords() words,
// little-endian. Batches are built by repeated appends and decoded in one
// call by DecodeStates.
func (e *Expander) AppendState(dst []byte, s PackedState) []byte {
	w := e.StateWords()
	for k := 0; k < w; k++ {
		dst = binary.LittleEndian.AppendUint64(dst, s[k])
	}
	return dst
}

// DecodeStates appends every state encoded in b (a batch built with
// AppendState under the same profiles and config) to out.
func (e *Expander) DecodeStates(b []byte, out []PackedState) ([]PackedState, error) {
	w := e.StateWords()
	stride := 8 * w
	if len(b)%stride != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the %d-byte state stride", len(b), stride)
	}
	for len(b) > 0 {
		var s PackedState
		for k := 0; k < w; k++ {
			s[k] = binary.LittleEndian.Uint64(b[8*k:])
		}
		out = append(out, s)
		b = b[stride:]
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

// StateSet is an open-addressing set of PackedStates backing one search
// driver's visited partition. Exactly one of the underlying sets is
// non-nil, matching the encoding of the Expander that created it.
type StateSet struct {
	narrow *u64Set
	wide   *wideSet
}

// Add inserts k and reports whether it was absent.
func (s *StateSet) Add(k PackedState) bool {
	if s.wide != nil {
		return s.wide.add(wstate(k))
	}
	return s.narrow.add(k[0])
}

// AddHashed is Add with the state's Expander.Hash precomputed — drivers
// that already hashed the state for shard routing skip the second mix.
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
