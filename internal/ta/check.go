package ta

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Property is a state predicate checked for reachability.
type Property func(s *State) bool

// CheckResult reports a reachability analysis outcome.
type CheckResult struct {
	Reachable bool
	States    int
	Depth     int
	Witness   []TraceEntry // path to the first satisfying state (if tracing)
}

// TraceEntry is one step of a witness trace.
type TraceEntry struct {
	Step  Step
	State *State
}

// CheckOptions tunes Reachable.
type CheckOptions struct {
	MaxStates int  // abort limit (default 50 million, at most 2³¹ − 1)
	Trace     bool // record a witness path
}

// ErrStateLimit is returned when exploration exceeds MaxStates.
var ErrStateLimit = errors.New("ta: state limit exceeded")

// ErrValueRange is returned when a reached state holds a location, variable
// or clock outside [0, 65535], the 16 bits the visited set stores per field.
var ErrValueRange = errors.New("ta: state field outside [0, 65535]")

// A stored key packs a state's fields, in Locs, Vars, Clocks order, 16 bits
// each and four to a uint64 word.
const fieldsPerWord = 4

// keyWords is the number of words a key of n fields takes.
func keyWords(n int) int { return (n + fieldsPerWord - 1) / fieldsPerWord }

// flatState returns a State of the network's shape whose Locs, Vars and
// Clocks are consecutive windows of flat, zero-padded to whole key words, so
// pack and unpack run over one array.
func (n *Network) flatState() (s *State, flat []int) {
	nl, nv, nc := len(n.Automata), len(n.VarNames), len(n.ClockNames)
	flat = make([]int, fieldsPerWord*keyWords(nl+nv+nc))
	return &State{
		Locs:   flat[:nl:nl],
		Vars:   flat[nl : nl+nv : nl+nv],
		Clocks: flat[nl+nv : nl+nv+nc : nl+nv+nc],
	}, flat
}

// pack writes a flat state into key. It reports false, leaving key partly
// written, when a field is outside [0, 65535].
func pack(flat []int, key []uint64) bool {
	for k := range key {
		f := (*[fieldsPerWord]int)(flat[fieldsPerWord*k:])
		if uint(f[0])|uint(f[1])|uint(f[2])|uint(f[3]) > math.MaxUint16 {
			return false
		}
		key[k] = uint64(f[0]) | uint64(f[1])<<16 | uint64(f[2])<<32 | uint64(f[3])<<48
	}
	return true
}

// unpack is pack's inverse.
func unpack(key []uint64, flat []int) {
	for k, w := range key {
		f := (*[fieldsPerWord]int)(flat[fieldsPerWord*k:])
		f[0], f[1], f[2], f[3] = int(w&math.MaxUint16), int(w>>16&math.MaxUint16), int(w>>32&math.MaxUint16), int(w>>48)
	}
}

// hashKey mixes a key's words into 64 bits; the visited set's tags are its
// high half.
func hashKey(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = bits.RotateLeft64(h^w*0x9e3779b97f4a7c15, 29) * 0xbf58476d1ce4e5b9
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// slabShift sizes the slab's blocks: 4,096 keys each.
const slabShift = 12

// stateStore is the visited set and the BFS queue in one. Keys live in the
// slab, appended in discovery order to fixed-size blocks, so a stored key
// never moves and holds no pointer; BFS level d is a slab index range. The
// index is open addressing with linear probing over uint64 entries: a 32-bit
// hash tag in the high half and the slab index + 1 in the low half (0 marks
// an empty entry). An entry's probe position is the top bits of its tag, so
// growing the index moves entries without re-hashing a key, and slab words
// are compared only when tags match.
type stateStore struct {
	words  int        // uint64 words per key
	blocks [][]uint64 // 1<<slabShift keys each
	n      int        // keys stored
	index  []uint64
	shift  uint // 32 − log2(len(index))
}

// newStateStore returns an empty store for flat states of the given length.
func newStateStore(flatLen int) *stateStore {
	const initBits = 10
	return &stateStore{
		words: flatLen / fieldsPerWord,
		index: make([]uint64, 1<<initBits),
		shift: 32 - initBits,
	}
}

// key returns stored key i.
func (st *stateStore) key(i int) []uint64 {
	o := (i & (1<<slabShift - 1)) * st.words
	return st.blocks[i>>slabShift][o : o+st.words : o+st.words]
}

// next returns the slab slot the next fresh key goes to. A caller packs a
// candidate there and calls add; a duplicate leaves the slot free.
func (st *stateStore) next() []uint64 {
	if st.n>>slabShift == len(st.blocks) {
		st.blocks = append(st.blocks, make([]uint64, st.words<<slabShift))
	}
	return st.key(st.n)
}

// add stores the key in next's slot unless an equal key is already stored,
// and reports whether it was fresh.
func (st *stateStore) add() bool {
	key := st.key(st.n)
	tag := uint32(hashKey(key) >> 32)
	mask := uint32(len(st.index) - 1)
	for i := tag >> st.shift; ; i = (i + 1) & mask {
		e := st.index[i]
		if e == 0 {
			st.n++
			st.index[i] = uint64(tag)<<32 | uint64(st.n)
			if 2*st.n > len(st.index) {
				st.grow()
			}
			return true
		}
		if uint32(e>>32) == tag && slices.Equal(st.key(int(uint32(e))-1), key) {
			return false
		}
	}
}

// grow doubles the index, placing every entry by its tag alone.
func (st *stateStore) grow() {
	old := st.index
	st.index = make([]uint64, 2*len(old))
	st.shift--
	mask := uint32(len(st.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) >> st.shift
		for st.index[i] != 0 {
			i = (i + 1) & mask
		}
		st.index[i] = e
	}
}

// Reachable performs breadth-first reachability analysis for the property.
// The property sees each fresh state once, in discovery order; the State it
// receives is scratch that is overwritten afterwards.
func (n *Network) Reachable(p Property, opt CheckOptions) (CheckResult, error) {
	if err := n.Validate(); err != nil {
		return CheckResult{}, err
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 50_000_000
	}
	// A slab index must fit the index's low half and a parent's int32.
	opt.MaxStates = min(opt.MaxStates, math.MaxInt32)
	// cur holds the initial state, then each expanded state in turn.
	cur, flat := n.initial()
	if !n.invariantsHold(cur) {
		return CheckResult{}, errors.New("ta: initial state violates invariants")
	}
	res := CheckResult{States: 1}
	if p(cur) {
		res.Reachable = true
		return res, nil
	}
	st := newStateStore(len(flat))
	if !pack(flat, st.next()) {
		return res, ErrValueRange
	}
	st.add()
	var parents []int32 // by slab index, under Trace
	var steps []Step
	if opt.Trace {
		parents, steps = []int32{-1}, []Step{{}}
	}
	sc := scratch{trace: opt.Trace}
	for depth, lo := 0, 0; lo < st.n; depth++ {
		res.Depth = depth
		hi := st.n
		for i := lo; i < hi; i++ {
			unpack(st.key(i), flat)
			k := n.successors(cur, flat, &sc)
			for j, ns := range sc.pool[:k] {
				if !pack(sc.flats[j], st.next()) {
					return res, ErrValueRange
				}
				if !st.add() {
					continue
				}
				res.States++
				if res.States > opt.MaxStates {
					return res, ErrStateLimit
				}
				if opt.Trace {
					parents = append(parents, int32(i))
					steps = append(steps, sc.steps[j])
				}
				if p(ns) {
					res.Reachable = true
					if opt.Trace {
						res.Witness = n.rebuild(st, parents, steps, st.n-1)
					}
					return res, nil
				}
			}
		}
		lo = hi
	}
	return res, nil
}

// rebuild decodes the path from the initial state to stored state last.
func (n *Network) rebuild(st *stateStore, parents []int32, steps []Step, last int) []TraceEntry {
	var out []TraceEntry
	for i := last; parents[i] >= 0; i = int(parents[i]) {
		s, flat := n.flatState()
		unpack(st.key(i), flat)
		out = append(out, TraceEntry{Step: steps[i], State: s})
	}
	slices.Reverse(out)
	return out
}

// AnyLocation returns a property that holds when any automaton whose name
// has the given prefix occupies the named location (e.g. any application in
// its Error state).
func (n *Network) AnyLocation(prefix, locName string) Property {
	type pair struct{ ai, li int }
	var ps []pair
	for ai, a := range n.Automata {
		if !strings.HasPrefix(a.Name, prefix) {
			continue
		}
		for li, l := range a.Locations {
			if l.Name == locName {
				ps = append(ps, pair{ai, li})
			}
		}
	}
	return func(s *State) bool {
		for _, p := range ps {
			if s.Locs[p.ai] == p.li {
				return true
			}
		}
		return false
	}
}
