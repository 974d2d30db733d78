package verify

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// contains reports membership.
func (s *keySet) contains(k uint64) bool {
	if len(s.slots) == 0 {
		return false // released
	}
	for i := hashKey(k) & s.mask; ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case 0:
			return false
		case k:
			return true
		}
	}
}

// The two tests below keep the names of the u64Set tests they replace.
func TestU64Set(t *testing.T) { checkKeySet(t, 1) }

// TestU64SetZeroKeyPanics checks that adding the reserved zero key panics.
func TestU64SetZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("adding the zero key did not panic")
		}
	}()
	newKeySet(4).add(0)
}

// checkKeySet holds the visited set to its contract against a map: fresh
// and duplicate adds, membership and length, growth from a four-slot
// request through several rehashes and past the 2 MiB line where tables
// leave the heap (mapped to mapped included), then release, refill with the
// same keys from no table to the same size, regrowth and release. Every growth must follow the rule —
// double while share such tables stay under 2 MiB, quadruple from a
// doubling that takes them to it — with the load at most ¾ after every add.
// At every step the table-bytes gauge must count exactly the table's bytes
// when it is mapped, and nothing when it is not.
func checkKeySet(t *testing.T, share int) {
	base := obsTableBytes.Value()
	s := newKeySet(4)
	s.share = share
	ref := map[uint64]bool{}
	accounted := func(step string) {
		t.Helper()
		bytes := int64(8 * len(s.slots))
		var want int64
		if runtime.GOOS == "linux" && bytes >= mapTableBytes {
			want = bytes
		}
		if got := obsTableBytes.Value() - base; got != want || (s.mem != nil) != (want > 0) {
			t.Fatalf("%s: %d of a %d-byte table mapped (mapping held: %v), want %d", step, got, bytes, s.mem != nil, want)
		}
	}
	members := func(step string) {
		t.Helper()
		n := 0
		for k, in := range ref {
			if s.contains(k) != in {
				t.Fatalf("%s: contains(%x) = %v, want %v", step, k, !in, in)
			}
			if in {
				n++
			}
		}
		if s.len() != n {
			t.Fatalf("%s: len=%d, want %d", step, s.len(), n)
		}
		accounted(step)
	}
	for _, x := range []uint64{1, 2, 3, 0xFFFFFFFFFFFFFFFF, 42, 1 << 40} {
		if !s.add(x) {
			t.Fatalf("fresh add(%#x) returned false", x)
		}
		ref[x] = true
	}
	for k := range ref {
		if s.add(k) {
			t.Fatalf("duplicate add(%x) returned true", k)
		}
	}
	if s.contains(99) {
		t.Fatal("contains(99) true")
	}
	members("small")
	// grow adds fresh random keys until the set holds n, checking each add,
	// each growth and the table's accounting whenever the count is a power
	// of two.
	rng := rand.New(rand.NewSource(7))
	var keys []uint64 // every key grow added, in order
	grow := func(step string, n int) {
		t.Helper()
		for s.len() < n {
			k := rng.Uint64() | 1
			size := len(s.slots)
			if s.add(k) == ref[k] {
				t.Fatalf("%s: add(%x) freshness mismatch", step, k)
			}
			if !ref[k] {
				keys = append(keys, k)
			}
			ref[k] = true
			if len(s.slots) != size {
				if want := rampOf(size, share); len(s.slots) != want {
					t.Fatalf("%s: a %d-slot table grew to %d slots, want %d", step, size, len(s.slots), want)
				}
			}
			if 4*s.len() > 3*len(s.slots) {
				t.Fatalf("%s: %d keys in %d slots, want load ≤ 3/4", step, s.len(), len(s.slots))
			}
			if s.len()&(s.len()-1) == 0 {
				accounted(fmt.Sprintf("%s to %d keys", step, s.len()))
			}
		}
		members(step)
	}
	// 200,000 keys take a table by doubling to 2¹⁷ slots (1 MiB), then in
	// one step to 2¹⁹, mapped; 400,000 take it to 2²¹. A share of 4 takes
	// the 4× step from 2¹⁵ slots: 2¹⁷, 2¹⁹, then 2²¹.
	const n = 200_000
	grow("growth", n)
	size := len(s.slots)
	s.release()
	for k := range ref {
		ref[k] = false
	}
	members("after release")
	if s.len() != 0 || s.slots != nil {
		t.Fatalf("release left %d keys in %d slots, want none", s.len(), len(s.slots))
	}
	for _, k := range keys {
		before := len(s.slots)
		if !s.add(k) || s.add(k) {
			t.Fatalf("refill: add(%x) is not fresh once, then a duplicate", k)
		}
		ref[k] = true
		if len(s.slots) != before && len(s.slots) != rampOf(before, share) {
			t.Fatalf("refill: a %d-slot table grew to %d slots, want %d", before, len(s.slots), rampOf(before, share))
		}
	}
	members("after refill")
	if len(s.slots) != size {
		t.Fatalf("refill with the same keys grew the table to %d slots, want the first fill's %d", len(s.slots), size)
	}
	grow("regrowth", 2*n)
	if want := rampOf(size, share); len(s.slots) != want {
		t.Fatalf("regrowth: %d slots, want %d", len(s.slots), want)
	}
	s.release()
	if got := obsTableBytes.Value() - base; got != 0 || s.slots != nil || s.len() != 0 {
		t.Fatalf("release left %d bytes mapped and %d slots", got, len(s.slots))
	}
}

// rampOf is the size a table of size slots and the given share grows to by
// one add: twice the size while share such tables stay under
// mapTableBytes, four times from there on. A released set, with no table,
// grows to 16.
func rampOf(size, share int) int {
	if 8*2*size*share < mapTableBytes {
		return max(2*size, 16)
	}
	return 4 * size
}

// TestKeySetAddAfterRelease: a released set is a valid empty set, and its
// next insert grows a table from 16 slots. Before the 16-slot floor, growth
// from no table doubled a size of 0 forever; the add runs on a goroutine so
// such a spin fails the test instead of hanging it.
func TestKeySetAddAfterRelease(t *testing.T) {
	s := newKeySet(16)
	s.add(3)
	s.release()
	done := make(chan bool, 1)
	go func() { done <- s.add(5) }()
	select {
	case fresh := <-done:
		if !fresh || !s.contains(5) || s.contains(3) || s.len() != 1 || len(s.slots) != 16 {
			t.Fatalf("add to a released set: fresh %v, len %d in %d slots", fresh, s.len(), len(s.slots))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add to a released set did not return within 5 s")
	}
}

// TestKeySetLaneGrowth holds a lane's table to the schedule scaled by its
// share — at a share of 4 the 4× step comes at a quarter of the size — and then
// the lanes of a search: S1 on two lanes crosses the line, and no lane
// table ends larger than the smallest table for its keys, 2²⁰ slots: the
// sequential table's 2²¹ halved, where the unscaled 4× step would end each
// at 2²¹.
func TestKeySetLaneGrowth(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { checkKeySet(t, 4) })
	t.Run("S1/workers=2", func(t *testing.T) {
		v := laneVerifier(t, caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true}, 2)
		e := newLanes(v, 2)
		defer e.Release()
		e.Absorb([][]uint64{{initialState(v)}})
		for e.Stats().Level > 0 {
			for e.LevelRound(nil) {
			}
			e.Advance()
		}
		if st := e.Stats(); st.States != 1440712 {
			t.Fatalf("S1 on two lanes: %d states, want 1440712", st.States)
		}
		for i := range e.lanes {
			s := &e.lanes[i].table
			if want := tableFor(s.len()); len(s.slots) > want {
				t.Errorf("lane %d: %d keys in %d slots, want at most %d", i, s.len(), len(s.slots), want)
			}
			if runtime.GOOS == "linux" && s.mem == nil {
				t.Errorf("lane %d: a %d-slot table left on the heap, want it mapped", i, len(s.slots))
			}
		}
	})
}

// TestKeySetGrowthHoldsOneTable: a mapped table's growth to a mapped one,
// the 4× step at any share, keeps every key and holds at most the new table
// plus one piece (rehashPiece, whichever size was picked) at any point. The
// old table is the 2 MiB line's or four pieces, whichever is larger. After each
// piece's keys have moved (pieceMoved) the test counts what the set holds:
// the old table's pieces not yet handed back, which the table-bytes gauge
// must count exactly and the one piece before which must read as zeros
// (its pages went back), plus the new table's pages that keys have
// touched. The gauge is back at its base after release.
func TestKeySetGrowthHoldsOneTable(t *testing.T) {
	for _, share := range []int{1, 4} {
		t.Run(fmt.Sprintf("share=%d", share), func(t *testing.T) {
			base := obsTableBytes.Value()
			size := max(mapTableBytes/8, 4*rehashPiece)
			s := newKeySet(size)
			s.share = share
			if s.mem == nil {
				t.Skip("tables are mapped off the heap only on Linux")
			}
			rng := rand.New(rand.NewSource(11))
			var keys []uint64
			for s.len() < 3*size/4 {
				if k := rng.Uint64() | 1; s.add(k) {
					keys = append(keys, k)
				}
			}
			page := os.Getpagesize() / 8 // slots
			pieces := 0
			s.pieceMoved = func(old []uint64, moved int) {
				pieces++
				if moved != pieces*rehashPiece {
					t.Fatalf("piece %d ends at slot %d, want %d", pieces, moved, pieces*rehashPiece)
				}
				if prev := old[max(moved-2*rehashPiece, 0) : moved-rehashPiece]; slices.ContainsFunc(prev, func(v uint64) bool { return v != 0 }) {
					t.Fatalf("piece %d: the piece before it still reads keys: not handed back", pieces)
				}
				newBytes := int64(8 * len(s.slots))
				oldHeld := obsTableBytes.Value() - base - newBytes
				if want := int64(8 * (len(old) - moved + rehashPiece)); oldHeld != want {
					t.Fatalf("piece %d: the gauge holds %d bytes of the old table, want %d", pieces, oldHeld, want)
				}
				touched := 0
				for p := 0; p < len(s.slots); p += page {
					if slices.ContainsFunc(s.slots[p:p+page], func(v uint64) bool { return v != 0 }) {
						touched++
					}
				}
				if held := oldHeld + int64(8*page*touched); held > newBytes+int64(8*rehashPiece) {
					t.Fatalf("piece %d: %d bytes held (%d of the old table, %d pages of the new), want at most the new table's %d plus a piece",
						pieces, held, oldHeld, touched, newBytes)
				}
			}
			for n := s.len(); s.len() == n; { // one more key grows the table
				if k := rng.Uint64() | 1; s.add(k) {
					keys = append(keys, k)
				}
			}
			if want := rampOf(size, share); len(s.slots) != want || s.mem == nil {
				t.Fatalf("grew to %d slots (mapped: %v), want %d mapped", len(s.slots), s.mem != nil, want)
			}
			if pieces != size/rehashPiece {
				t.Fatalf("the growth moved %d pieces, want %d", pieces, size/rehashPiece)
			}
			for _, k := range keys {
				if !s.contains(k) {
					t.Fatalf("key %x lost in the growth", k)
				}
			}
			if s.len() != len(keys) {
				t.Fatalf("len %d after the growth, want %d", s.len(), len(keys))
			}
			if got := obsTableBytes.Value() - base; got != int64(8*len(s.slots)) {
				t.Fatalf("after the growth the gauge holds %d bytes, want the new table's %d", got, 8*len(s.slots))
			}
			s.release()
			if got := obsTableBytes.Value() - base; got != 0 {
				t.Fatalf("release left %d bytes held", got)
			}
		})
	}
}

func TestKeySetBudget(t *testing.T) {
	t.Run("narrow", checkKeySetBudget)
}

// checkKeySetBudget holds growth to the state budget: a set told its
// search's MaxStates never grows past the smallest table that holds
// MaxStates + 1 keys at ¾ load — not by the ramp as chunks fill it, not for
// level estimates far past the budget — while it stays at most ¾ loaded up
// to the budget, and a chunk that crosses the budget still lands. A budget
// smaller than the table never shrinks it.
func checkKeySetBudget(t *testing.T) {
	for _, c := range []struct {
		maxStates int
		estimate  bool
	}{{40_000, false}, {100_000, false}, {100_000, true}, {393_215, false}, {700_000, false}, {700_000, true}} {
		maxStates := c.maxStates
		s := newKeySet(16)
		s.budget(maxStates)
		limit := tableFor(maxStates + 1)
		x := uint64(1)
		for s.len() <= maxStates {
			if c.estimate {
				s.reserve(max(s.len(), 1024)) // past the budget from half of it on
			}
			chunk := make([]uint64, min(1024, maxStates+1-s.len()))
			for i := range chunk {
				chunk[i] = mix(x)
				x++
			}
			if fresh := s.addChunk(chunk, nil); len(fresh) != len(chunk) {
				t.Fatalf("budget %d: %d of %d keys fresh", maxStates, len(fresh), len(chunk))
			}
			if len(s.slots) > limit || 4*s.len() > 3*len(s.slots) {
				t.Fatalf("budget %d: %d keys in %d slots, want at most %d slots at load ≤ 3/4",
					maxStates, s.len(), len(s.slots), limit)
			}
		}
		if len(s.slots) != limit {
			t.Fatalf("budget %d: %d slots at the budget, want its table of %d", maxStates, len(s.slots), limit)
		}
		// A chunk past the budget, as large as the table's free slots plus
		// one, must still find room: the one growth past the budget.
		over := make([]uint64, len(s.slots)-s.len()+1)
		for i := range over {
			over[i] = mix(x)
			x++
		}
		if fresh := s.addChunk(over, nil); len(fresh) != len(over) || s.len() >= len(s.slots) {
			t.Fatalf("budget %d: a chunk past it left %d keys in %d slots", maxStates, s.len(), len(s.slots))
		}
		s.release()
	}
	// Past ¾ load of a table larger than its budget's, adds fill it and
	// leave it its size.
	s := newKeySet(1 << 12)
	s.budget(100)
	for x := uint64(1); x <= 3500; x++ {
		s.add(x)
	}
	if len(s.slots) != 1<<12 || s.len() != 3500 {
		t.Fatalf("a budget under the table's size: %d keys in %d slots, want 3500 in %d", s.len(), len(s.slots), 1<<12)
	}
}

// TestStateKeyHashPinned pins hashKey on fixed states to the values of the
// function it replaced (hashU64). A state's shard (ShardOf: its owner
// node) and its partition within a node are functions of it, so a change
// here moves states between partitions and nodes — a protoVersion bump,
// not a refactor.
func TestStateKeyHashPinned(t *testing.T) {
	for _, c := range []struct {
		k    uint64
		want uint64
	}{
		{1, 0x5692161d100b05e5},
		{0xF << 32, 0x94ca4111909f5ee}, // S1's initial state
		{0x123456789abcdef0, 0x9629f58e8ec5b906},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
	} {
		if got := hashKey(c.k); got != c.want {
			t.Errorf("hashKey(%#x) = %#x, want %#x", c.k, got, c.want)
		}
	}
}
