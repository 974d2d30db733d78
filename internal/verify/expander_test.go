package verify

import (
	"slices"
	"sort"
	"testing"

	"tightcps/internal/switching"
)

// succStates is SuccessorsHashedInto without the hashes: the reference
// searches of this package's tests expand through the one exported path.
// hs is the caller's recycled hashed buffer.
func succStates(e *Expander, s PackedState, scr *ExpandScratch, hs *[]HashedState, out []PackedState) ([]PackedState, int) {
	var viol int
	*hs, viol = e.SuccessorsHashedInto(s, scr, (*hs)[:0])
	for _, h := range *hs {
		out = append(out, h.S)
	}
	return out, viol
}

// laneLevel returns the states of the level a node's lanes hold, sorted.
func laneLevel(e *Lanes) []PackedState {
	var states []PackedState
	for i := range e.lanes {
		f := &e.lanes[i].frontier
		for lo := 0; lo < f.len(); lo += levelBlock {
			for _, k := range f.span(lo, levelBlock) {
				states = append(states, PackedState(k))
			}
		}
	}
	slices.Sort(states)
	return states
}

// TestExpanderMatchesInternalSuccessors pins the seam to the internal
// search: the exported expansion must produce exactly the packed states
// the internal successors() produces.
func TestExpanderMatchesInternalSuccessors(t *testing.T) {
	ps := []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	v, err := New(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	e := v.Expander()
	init := initialState(v)
	if e.Initial() != PackedState(init) {
		t.Fatalf("Initial() = %v, want %d", e.Initial(), init)
	}
	var sc expandScratch
	keys, _, viol := successors(v, init, &sc, nil, nil)
	if viol >= 0 {
		t.Fatal("initial state violated")
	}
	var hs []HashedState
	got, app := succStates(e, PackedState(init), e.NewScratch(), &hs, nil)
	if app != -1 {
		t.Fatalf("the seam reported violator %d", app)
	}
	if len(got) != len(keys) {
		t.Fatalf("%d successors via the seam, %d internally", len(got), len(keys))
	}
	gw, ww := make([]uint64, len(got)), make([]uint64, len(keys))
	for i, s := range got {
		gw[i], ww[i] = uint64(s), keys[i]
	}
	sort.Slice(gw, func(a, b int) bool { return gw[a] < gw[b] })
	sort.Slice(ww, func(a, b int) bool { return ww[a] < ww[b] })
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("successor sets differ at %d: %d vs %d", i, gw[i], ww[i])
		}
	}
}

// TestExpanderViolationSurfaces: the seam reports the same violating app
// the internal expansion finds.
func TestExpanderViolationSurfaces(t *testing.T) {
	ps := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	v, err := New(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	e := v.Expander()
	// Walk until a violation: BFS over the seam only.
	seen := e.NewSet(64)
	frontier := []PackedState{e.Initial()}
	seen.AddHashed(frontier[0], e.Hash(frontier[0]))
	scr := e.NewScratch()
	var succ []HashedState
	for len(frontier) > 0 {
		var next []PackedState
		for _, s := range frontier {
			var app int
			if succ, app = e.SuccessorsHashedInto(s, scr, succ[:0]); app >= 0 {
				return // violation surfaced, as expected for the overload pair
			}
			for _, ns := range succ {
				if seen.AddHashed(ns.S, ns.H) {
					next = append(next, ns.S)
				}
			}
		}
		frontier = next
	}
	t.Fatal("overloaded pair never violated through the seam")
}

// TestExpanderBatchRoundTrip covers the wire codec, including the
// stride-mismatch error, up to a set whose states fill the word.
func TestExpanderBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"narrow", fleet(3, 5, 2, 4, 20)},
		{"narrow7", fleet(7, 6, 1, 2, 10)},  // 7·6+8 = 50 bits with the clock fitted to r = 10
		{"fullWord", fleet(8, 6, 1, 2, 32)}, // 8·7+8 = 64
	} {
		e, err := NewExpander(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var hs []HashedState
		states, app := succStates(e, e.Initial(), e.NewScratch(), &hs, nil)
		if app >= 0 {
			t.Fatalf("%s: initial expansion violated", tc.name)
		}
		var b []byte
		for _, s := range states {
			b = e.AppendWords(b, []uint64{uint64(s)})
		}
		if len(b) != len(states)*8 {
			t.Fatalf("%s: batch is %d bytes for %d states", tc.name, len(b), len(states))
		}
		back, err := e.DecodeWords(b, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(back) != len(states) {
			t.Fatalf("%s: %d states decoded, want %d", tc.name, len(back), len(states))
		}
		for i := range back {
			if PackedState(back[i]) != states[i] {
				t.Fatalf("%s: state %d round trip: %v vs %v", tc.name, i, back[i], states[i])
			}
		}
		if _, err := e.DecodeWords(b[:len(b)-1], nil); err == nil {
			t.Fatalf("%s: truncated batch decoded without error", tc.name)
		}
	}
}

// TestSuccessorsHashedIntoMatches pins the batched-hashing expansion
// path: it must produce exactly the internal successors() states in the
// same order, each paired with
// its Expander.Hash — the "hashed exactly once" contract of the mesh
// workers' hot path — and surface violations with out unchanged.
func TestSuccessorsHashedIntoMatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"narrow", fleet(3, 5, 2, 4, 20)},
		{"fullWord", fleet(8, 6, 1, 2, 32)},
	} {
		v, err := New(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := v.Expander()
		var sc expandScratch
		hsc := e.NewScratch()
		var plain []PackedState
		var hashed []HashedState
		frontier := []PackedState{e.Initial()}
		seen := e.NewSet(64)
		seen.AddHashed(frontier[0], e.Hash(frontier[0]))
		for level := 0; level < 3 && len(frontier) > 0; level++ {
			var next []PackedState
			for _, s := range frontier {
				var appP, appH int
				plain, _, appP = v.kernelSuccessors(s, &sc, plain[:0])
				hashed, appH = e.SuccessorsHashedInto(s, hsc, hashed[:0])
				if appP != appH {
					t.Fatalf("%s: violator %d via hashed path, %d plain", tc.name, appH, appP)
				}
				if appP >= 0 {
					if len(hashed) != 0 {
						t.Fatalf("%s: violation appended %d hashed successors", tc.name, len(hashed))
					}
					continue
				}
				if len(hashed) != len(plain) {
					t.Fatalf("%s: %d hashed successors, %d plain", tc.name, len(hashed), len(plain))
				}
				for i := range plain {
					if hashed[i].S != plain[i] {
						t.Fatalf("%s: successor %d: %v hashed, %v plain", tc.name, i, hashed[i].S, plain[i])
					}
					if hashed[i].H != e.Hash(plain[i]) {
						t.Fatalf("%s: successor %d: carried hash %#x, Hash says %#x", tc.name, i, hashed[i].H, e.Hash(plain[i]))
					}
				}
				for _, ns := range plain {
					if seen.AddHashed(ns, e.Hash(ns)) {
						next = append(next, ns)
					}
				}
			}
			frontier = next
		}
	}
}

// TestWordSeamMatchesPackedSeam holds the words-in/words-out seam of the
// lanes to the PackedState one, level by level, to each fixture's verdict or
// its first 50,000 states: a one-lane node's Absorb keeps exactly the
// states that an AddHashed loop over the same slab of
// SuccessorsHashedInto's successors reports fresh — a level's whole
// successor slab at a time, so duplicates inside a slab are the rule — and
// every hash is Hash of the state. A violation appends no successor.
func TestWordSeamMatchesPackedSeam(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
		cfg  Config
	}{
		{"narrow", fleet(3, 5, 2, 4, 20), Config{NondetTies: true}},
		{"narrow-violating", fleet(3, 1, 3, 5, 20), Config{NondetTies: true}},
		{"fullWord", fleet(8, 6, 1, 2, 32), Config{NondetTies: true}},
		{"symmetric", fleet(5, 6, 1, 2, 12), Config{NondetTies: true, SymmetryReduction: true}},
	} {
		e, err := NewExpander(tc.ps, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		init := e.Initial()
		lanes, packed := e.NewLanes(1), e.NewSet(16)
		defer lanes.Release()
		defer func() { packed.set.release() }() // now, not at a collection during a later test
		lanes.Absorb([][]uint64{{uint64(init)}})
		frontier := laneLevel(lanes)
		if !slices.Equal(frontier, []PackedState{init}) {
			t.Fatalf("%s: the initial level is %x, want the initial state", tc.name, frontier)
		}
		packed.AddHashed(init, e.Hash(init))
		scr := e.NewScratch()
		var slab []uint64
		var want []PackedState
		var hs []HashedState
		states, dups, violated := 1, 0, false
		for depth := 0; len(frontier) > 0 && !violated && states < 50000; depth++ {
			slab, hs = slab[:0], hs[:0]
			for _, s := range frontier {
				n := len(hs)
				var app int
				if hs, app = e.SuccessorsHashedInto(s, scr, hs); app >= 0 {
					violated = true
					if len(hs) != n {
						t.Fatalf("%s depth %d: a violation appended successors", tc.name, depth)
					}
				}
			}
			for i, h := range hs {
				if h.H != e.Hash(h.S) {
					t.Fatalf("%s depth %d: successor %d hashes to %#x, Hash says %#x", tc.name, depth, i, h.H, e.Hash(h.S))
				}
				slab = append(slab, uint64(h.S))
			}
			lanes.Advance()
			lanes.Absorb([][]uint64{slab})
			frontier = laneLevel(lanes)
			want = want[:0]
			for _, h := range hs {
				if packed.AddHashed(h.S, h.H) {
					want = append(want, h.S)
				}
			}
			if slices.Sort(want); !slices.Equal(frontier, want) {
				t.Fatalf("%s depth %d: slab absorb keeps %d fresh states, the AddHashed loop %d (or others)", tc.name, depth, len(frontier), len(want))
			}
			dups += len(hs) - len(frontier)
			states += len(frontier)
		}
		if got := lanes.Stats().States; got != states || packed.Len() != states {
			t.Fatalf("%s: the lanes hold %d states and the set %d, %d were fresh", tc.name, got, packed.Len(), states)
		}
		if violated != (tc.name == "narrow-violating") || dups == 0 {
			t.Fatalf("%s: violated=%v after %d duplicate successors", tc.name, violated, dups)
		}
		t.Logf("%s: %d states, %d duplicates, violated=%v", tc.name, states, dups, violated)
	}
}
