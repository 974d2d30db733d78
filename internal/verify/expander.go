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
	"runtime"
	"slices"

	"tightcps/internal/switching"
)

// PackedState is the encoding-independent packed form of one composed
// state: narrow (one-word) states occupy word 0 with words 1..2 zero, wide
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
// 2 + ⌈log₂ max r⌉ bits and the 8-bit header exceed 64 bits:
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
// driver: the kernel's group scratch and the successors of one state as
// the encoding's keys, which the seam converts at its edge. It is not safe
// for concurrent use: give every driver goroutine its own, as the internal
// searches do. The buffers grow to the verifier's maximum fanout and are
// then recycled, so steady-state expansion performs no allocation.
type ExpandScratch struct {
	sc     expandScratch
	narrow [][1]uint64
	wide   [][wideWords]uint64
}

// NewScratch returns a fresh scratch for SuccessorsHashedInto.
func (e *Expander) NewScratch() *ExpandScratch { return &ExpandScratch{} }

// HashedState pairs a packed state with its Expander.Hash: the unit of
// SuccessorsHashedInto.
type HashedState struct {
	S PackedState
	H uint64
}

// SuccessorsHashedInto expands s: it appends its successors, each with its
// hash, to out, in the local drivers' successor order, and returns the
// application whose deadline the expansion violated, or −1 when every
// disturbance choice stays safe (out unchanged on a violation).
func (e *Expander) SuccessorsHashedInto(s PackedState, scr *ExpandScratch, out []HashedState) ([]HashedState, int) {
	if e.v.wide {
		return successorsHashed(e.v, [wideWords]uint64(s), &scr.sc, &scr.wide, out)
	}
	return successorsHashed(e.v, [1]uint64{s[0]}, &scr.sc, &scr.narrow, out)
}

func successorsHashed[K stateKey](v *Verifier, s K, sc *expandScratch, succ *[]K, out []HashedState) ([]HashedState, int) {
	var viol int
	*succ, _, viol = successors(v, s, sc, (*succ)[:0], nil)
	for _, k := range *succ {
		hs := HashedState{H: hashKey(k)}
		for i := 0; i < len(k); i++ {
			hs.S[i] = k[i]
		}
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

// AppendWords appends the byte encoding of a slab of states to dst — the
// format of mesh batches: its words verbatim,
// little-endian. DecodeWords reverses it.
func (e *Expander) AppendWords(dst []byte, slab []uint64) []byte {
	for _, w := range slab {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeWords appends the words of every state encoded in b (a batch built
// with AppendWords under the same profiles and config) to out. The states
// must pass CheckWords: bytes from a peer or a disk reach the visited sets
// and the kernel only as states a search could have produced.
func (e *Expander) DecodeWords(b []byte, out []uint64) ([]uint64, error) {
	sw := e.StateWords()
	if len(b)%(8*sw) != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the %d-byte state stride", len(b), 8*sw)
	}
	n := len(out)
	for ; len(b) > 0; b = b[8:] {
		out = append(out, binary.LittleEndian.Uint64(b))
	}
	if err := e.CheckWords(out[n:]); err != nil {
		return out[:n], err
	}
	return out, nil
}

// CheckWords refuses a slab of states, StateWords() words each, holding one
// that no search under this expander's profiles and config produces: the
// all-zero state (the visited sets' empty-slot sentinel), a bit set outside
// the n lanes and the occupant/dwell header, an occupant index that is
// neither an application nor the idle sentinel, an occupant whose lane
// records a wait beyond its T*w (no dwell window exists for it: the kernel
// would panic), and a lane clock past its phase's bound — a Cooldown clock
// above r − 1 or a Waiting clock at or above T*w, on which the kernel's
// clock add would carry into the next lane or the occupant field. The test
// is word-mask compares and one table read per state; the error names the
// first state refused and why.
func (e *Expander) CheckWords(slab []uint64) error {
	v, t := e.v, &e.v.kt
	if !v.wide {
		for i, w := range slab {
			if w == 0 || w&^t.layout[0] != 0 || t.badClocks(0, w) || v.badOccupant(slab[i:i+1], int(w>>v.occShift&0xF), 0xF) {
				return e.refuse(slab[i:i+1], i)
			}
		}
		return nil
	}
	for i := 0; i+wideWords <= len(slab); i += wideWords {
		s := (*[wideWords]uint64)(slab[i:])
		if s[0]|s[1]|s[2] == 0 ||
			s[0]&^t.layout[0]|s[1]&^t.layout[1]|s[2]&^t.layout[2] != 0 ||
			t.badClocks(0, s[0]) || t.badClocks(1, s[1]) ||
			v.badOccupant(s[:], int(s[2]&wideIdle), wideIdle) {
			return e.refuse(s[:], i/wideWords)
		}
	}
	return nil
}

// badClocks reports whether lane word k of a state, x, holds a Cooldown
// clock above r − 1 or a Waiting clock at or above T*w. Like the kernel's
// expiry test it compares every clock field of the word at once: the
// compares leave their answer at each field's top bit, which a shift
// brings down to the lane's phase bit 0.
func (t *kernel) badClocks(k int, x uint64) bool {
	b0, b1 := x&t.p0[k], x>>1&t.p0[k]
	sh := (t.laneBits - 1) & 63
	return b0&b1&(t.clockAbove(k, x, t.rm1[k])>>sh) != 0 ||
		b0&^b1&^(t.clockAbove(k, t.twv[k], x)>>sh) != 0
}

// clockAbove returns, at the top bit of every clock field of lane word k,
// whether a's clock exceeds b's. The low bits are compared by a
// subtraction that cannot borrow across fields — each field of b's low
// bits is lifted by its top bit first — and the top bits decide where
// they differ. With no clock bits (every r = 1) it returns zero.
func (t *kernel) clockAbove(k int, a, b uint64) uint64 {
	top, low := t.valTop[k]&t.val[k], t.valLow[k]
	a, b = a&t.val[k], b&t.val[k]
	lowAtLeast := (b&low | top) - a&low // top bit set: b's low bits ≥ a's
	return (a&^b | ^(a^b)&^lowAtLeast) & top
}

// badOccupant reports whether the occupant field value occ of the state s
// (idle being the slot-idle sentinel) names no application, or one whose
// lane records a wait beyond its T*w.
func (v *Verifier) badOccupant(s []uint64, occ, idle int) bool {
	t := &v.kt
	if occ == idle {
		return false
	}
	if occ >= v.n {
		return true
	}
	return s[t.word[occ]]>>(t.shift[occ]+phaseBits)&t.valMask > uint64(t.tw[occ])
}

// refuse is CheckWords' error for state i, s, saying what it refuses in it.
func (e *Expander) refuse(s []uint64, i int) error {
	v, t := e.v, &e.v.kt
	for k, w := range s {
		if x := w &^ t.layout[k]; x != 0 {
			return fmt.Errorf("verify: state %d of the batch sets bits %#x of word %d, outside its lanes and header", i, x, k)
		}
	}
	if slices.Max(s) == 0 {
		return fmt.Errorf("verify: state %d of the batch is the all-zero state, which no encoding produces", i)
	}
	occ, idle := int(s[0]>>v.occShift&0xF), 0xF
	if v.wide {
		occ, idle = int(s[wideWords-1]&wideIdle), wideIdle
	}
	switch {
	case occ != idle && occ >= v.n:
		return fmt.Errorf("verify: state %d of the batch names occupant index %d, none of the %d applications", i, occ, v.n)
	case v.badOccupant(s, occ, idle):
		return fmt.Errorf("verify: state %d of the batch has occupant %s granted after a wait of %d, beyond its T*w of %d",
			i, v.profs[occ].Name, s[t.word[occ]]>>(t.shift[occ]+phaseBits)&t.valMask, t.tw[occ])
	}
	for a, p := range v.profs {
		lane := s[t.word[a]] >> t.shift[a]
		clk := lane >> phaseBits & t.valMask
		switch uint8(lane & (1<<phaseBits - 1)) {
		case pCooldown:
			if clk >= uint64(t.r[a]) {
				return fmt.Errorf("verify: state %d of the batch has %s in cooldown at clock %d, past its r − 1 of %d", i, p.Name, clk, t.r[a]-1)
			}
		case pWaiting:
			if clk >= uint64(t.tw[a]) {
				return fmt.Errorf("verify: state %d of the batch has %s waiting at clock %d, not below its T*w of %d", i, p.Name, clk, t.tw[a])
			}
		}
	}
	return fmt.Errorf("verify: state %d of the batch is outside the set's layout", i)
}

// NewSet returns an empty visited set for the expander's encoding: narrow
// states are stored as one word (8 bytes each), wide states as full
// multi-word keys. Not safe for concurrent use — each search driver owns
// its partition. A table mapped off the heap, having no search to end it,
// is released when the set is collected.
func (e *Expander) NewSet(capacity int) *StateSet {
	var set wordSet
	if e.v.wide {
		set = newKeySet[[wideWords]uint64](capacity)
	} else {
		set = newKeySet[[1]uint64](capacity)
	}
	s := &StateSet{set}
	runtime.AddCleanup(s, wordSet.release, set)
	return s
}

// StateSet is an open-addressing set of packed states backing one search
// driver's visited partition: the local drivers' keySet, of the encoding of
// the Expander that created it. Every method keeps the StateSet alive until
// it returns: the cleanup NewSet registers must not unmap the table under a
// call that is the set's last use.
type StateSet struct {
	set wordSet
}

// wordSet is a keySet seen through the PackedState seam.
type wordSet interface {
	addPacked(k PackedState, h uint64) bool
	len() int
	reserve(n int)
	release()
}

// addPacked is addHashed of a PackedState's significant words.
func (s *keySet[K]) addPacked(k PackedState, h uint64) bool { return s.addHashed(K(k[:]), h) }

// AddHashed inserts one state, given with its Expander.Hash, and reports
// whether it was absent.
func (s *StateSet) AddHashed(k PackedState, h uint64) bool {
	fresh := s.set.addPacked(k, h)
	runtime.KeepAlive(s)
	return fresh
}

// Len returns the number of stored states.
func (s *StateSet) Len() int {
	n := s.set.len()
	runtime.KeepAlive(s)
	return n
}

// Reserve grows the set — in a single rehash — until it can absorb n more
// states without exceeding the load factor. Search drivers call it with the
// expected fanout of the coming level so inserts never rehash mid-level,
// exactly like the internal BFS drivers.
func (s *StateSet) Reserve(n int) {
	s.set.reserve(n)
	runtime.KeepAlive(s)
}
