package verify

// The expansion-core seam: external search drivers — today the distributed
// backend of internal/dverify — need to expand states, hash them for
// partitioning, order them for the minimum-violator tie-break, and move
// frontiers across process boundaries, all without re-implementing the
// per-sample semantics. Expander exposes exactly that surface as flat word
// slabs, one word per state — the kernel's states laid end to end;
// PackedState carries a single state where one crosses a control plane.

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"tightcps/internal/switching"
)

// PackedState is one composed state: the one-word packed encoding. The bit
// layout depends on the set — lane clocks are as wide as its largest r
// needs — so a PackedState means something only to Expanders built from
// the same profiles and config. No state is zero (an idle slot stores a
// nonzero occupant sentinel), so zero remains the empty-slot sentinel of
// the hash sets, and the minimum-violator tie-break is the uint64 order.
type PackedState uint64

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

// Initial returns the all-Steady, slot-idle state.
func (e *Expander) Initial() PackedState { return PackedState(initialState(e.v)) }

// ExpandScratch owns the expansion core's reusable buffers for one external
// driver: the kernel's group scratch and the successors of one state. It
// is not safe for concurrent use: give every driver goroutine its own, as
// the internal searches do. The buffers grow to the verifier's maximum
// fanout and are then recycled, so steady-state expansion performs no
// allocation.
type ExpandScratch struct {
	sc   expandScratch
	succ []uint64
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
	var viol int
	scr.succ, _, viol = successors(e.v, uint64(s), &scr.sc, scr.succ[:0], nil)
	for _, k := range scr.succ {
		out = append(out, HashedState{S: PackedState(k), H: hashKey(k)})
	}
	return out, viol
}

// Hash mixes a state for shard selection and set probing — hashKey, the
// hash behind the visited sets and the local drivers' partitions. Every
// driver of one run must partition by the same hash, which this method
// guarantees.
func (e *Expander) Hash(s PackedState) uint64 { return hashKey(uint64(s)) }

// AppendWords appends the byte encoding of a slab of states to dst — the
// format of mesh batches: its words verbatim, little-endian. DecodeWords
// reverses it.
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
	if len(b)%8 != 0 {
		return out, fmt.Errorf("verify: frontier batch of %d bytes is not a multiple of the 8-byte state", len(b))
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

// CheckWords refuses a slab of states holding one that no search under
// this expander's profiles and config produces: the all-zero state (the
// visited sets' empty-slot sentinel), a bit set outside the n lanes and the
// occupant/dwell header, an occupant index that is neither an application
// nor the idle sentinel, an occupant whose lane records a wait beyond its
// T*w (no dwell window exists for it: the kernel would panic), and a lane
// clock past its phase's bound — a Cooldown clock above r − 1 or a Waiting
// clock at or above T*w, on which the kernel's clock add would carry into
// the next lane or the occupant field. The test is word-mask compares and
// one table read per state; the error names the first state refused and
// why.
func (e *Expander) CheckWords(slab []uint64) error {
	v, t := e.v, &e.v.kt
	for i, w := range slab {
		if w == 0 || w&^t.layout != 0 || t.badClocks(w) || v.badOccupant(w) {
			return e.refuse(w, i)
		}
	}
	return nil
}

// badClocks reports whether a state x holds a Cooldown clock above r − 1
// or a Waiting clock at or above T*w. Like the kernel's expiry test it
// compares every clock field at once: the compares leave their answer at
// each field's top bit, which a shift brings down to the lane's phase
// bit 0.
func (t *kernel) badClocks(x uint64) bool {
	b0, b1 := x&t.p0, x>>1&t.p0
	sh := (t.laneBits - 1) & 63
	return b0&b1&(t.clockAbove(x, t.rm1)>>sh) != 0 ||
		b0&^b1&^(t.clockAbove(t.twv, x)>>sh) != 0
}

// clockAbove returns, at the top bit of every clock field, whether a's
// clock exceeds b's. The low bits are compared by a subtraction that
// cannot borrow across fields — each field of b's low bits is lifted by
// its top bit first — and the top bits decide where they differ. With no
// clock bits (every r = 1) it returns zero.
func (t *kernel) clockAbove(a, b uint64) uint64 {
	top, low := t.valTop&t.val, t.valLow
	a, b = a&t.val, b&t.val
	lowAtLeast := (b&low | top) - a&low // top bit set: b's low bits ≥ a's
	return (a&^b | ^(a^b)&^lowAtLeast) & top
}

// occupant returns the occupant field of state s: an application index,
// or 0xF when the slot is idle.
func (v *Verifier) occupant(s uint64) int { return int(s >> v.occShift & 0xF) }

// badOccupant reports whether the occupant field of state s names no
// application, or one whose lane records a wait beyond its T*w.
func (v *Verifier) badOccupant(s uint64) bool {
	t := &v.kt
	occ := v.occupant(s)
	if occ == 0xF {
		return false
	}
	if occ >= v.n {
		return true
	}
	return s>>(t.shift[occ]+phaseBits)&t.valMask > uint64(t.tw[occ])
}

// refuse is CheckWords' error for state i, s, saying what it refuses in it.
func (e *Expander) refuse(s uint64, i int) error {
	v, t := e.v, &e.v.kt
	if x := s &^ t.layout; x != 0 {
		return fmt.Errorf("verify: state %d of the batch sets bits %#x, outside its lanes and header", i, x)
	}
	if s == 0 {
		return fmt.Errorf("verify: state %d of the batch is the all-zero state, which no search produces", i)
	}
	switch occ := v.occupant(s); {
	case occ != 0xF && occ >= v.n:
		return fmt.Errorf("verify: state %d of the batch names occupant index %d, none of the %d applications", i, occ, v.n)
	case v.badOccupant(s):
		return fmt.Errorf("verify: state %d of the batch has occupant %s granted after a wait of %d, beyond its T*w of %d",
			i, v.profs[occ].Name, s>>(t.shift[occ]+phaseBits)&t.valMask, t.tw[occ])
	}
	for a, p := range v.profs {
		lane := s >> t.shift[a]
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

// NewSet returns an empty visited set of the expander's states, each in a
// cell as wide as the states are. Not safe for concurrent use — each search
// driver owns its partition. A table mapped off the heap, having no search
// to end it, is released when the set is collected.
func (e *Expander) NewSet(capacity int) *StateSet {
	s := &StateSet{newKeySet(capacity, e.v.keyBytes)}
	runtime.AddCleanup(s, (*keySet).release, s.set)
	return s
}

// StateSet is an open-addressing set of packed states backing one search
// driver's visited partition: the local drivers' keySet. Every method
// keeps the StateSet alive until it returns: the cleanup NewSet registers
// must not unmap the table under a call that is the set's last use.
type StateSet struct {
	set *keySet
}

// AddHashed inserts one state, given with its Expander.Hash, and reports
// whether it was absent.
func (s *StateSet) AddHashed(k PackedState, h uint64) bool {
	fresh := s.set.addHashed(uint64(k), h)
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
