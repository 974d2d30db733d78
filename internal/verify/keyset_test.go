package verify

import (
	"encoding/binary"
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
	if s.size == 0 {
		return false // released
	}
	for i := hashKey(k) & s.mask; ; i = (i + 1) & s.mask {
		switch s.cell(int(i)) {
		case 0:
			return false
		case k:
			return true
		}
	}
}

// cell returns the key in cell i, 0 when it is empty.
func (s *keySet) cell(i int) uint64 {
	return binary.LittleEndian.Uint64(s.tab[i*int(s.w):]) & s.wmask
}

// widthKey is the x-th key of width w (modulo the 2^(8w−1) of them): the
// top bit of its top byte is set, so a cell narrower than the key would cut
// it, and the bits below are x times an odd constant, a bijection that
// spreads consecutive x over every byte.
func widthKey(w int, x uint64) uint64 {
	top := uint64(1) << (8*w - 1)
	return top | x*0x9e3779b97f4a7c15&(top-1)
}

// widthSpace is how many keys of width w widthKey draws from, capped at
// 2⁶² (an int) for 8-byte keys.
func widthSpace(w int) int { return 1 << min(8*w-1, 62) }

// forWidths runs f as a subtest at every cell width, 1 to 8 bytes.
func forWidths(t *testing.T, f func(t *testing.T, w int)) {
	for w := 1; w <= 8; w++ {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) { f(t, w) })
	}
}

// The two tests below keep the names of the u64Set tests they replace.
func TestU64Set(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) { checkKeySet(t, 1, w) })
}

// TestU64SetZeroKeyPanics checks that adding the reserved zero key panics.
func TestU64SetZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("adding the zero key did not panic")
		}
	}()
	newKeySet(4, 8).add(0)
}

// TestKeySetWideKeyPanics: a key wider than the cells panics on both insert
// paths, like the zero key, instead of probing forever for a cell the
// masked compare never matches; a key that fills the cells is stored.
func TestKeySetWideKeyPanics(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		s := newKeySet(16, w)
		if !s.add(^uint64(0)>>(64-8*w)) || !s.add(1) {
			t.Fatalf("keys that fit %d-byte cells were not stored", w)
		}
		if w == 8 {
			return
		}
		wide := uint64(1) << (8 * w)
		for name, add := range map[string]func(){
			"add":      func() { s.add(wide) },
			"addChunk": func() { s.addChunk([]uint64{2, wide}, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of the %d-byte key %#x into %d-byte cells did not panic", name, w+1, wide, w)
					}
				}()
				add()
			}()
		}
	})
}

// checkKeySet holds the visited set to its contract against a map: fresh
// and duplicate adds, membership and length, growth from a four-slot
// request through several rehashes and past the 2 MiB line where tables
// leave the heap (mapped to mapped included), then release, refill with the
// same keys from no table to the same size, regrowth and release, with
// keys of w bytes, the top one set. Every growth must follow the rule —
// double while share tables of 8-byte cells stay under 2 MiB, quadruple
// from a doubling that takes them to it — with the load at most ¾ after
// every add. The table must weigh its cells at w bytes plus the padding,
// and at every step the table-bytes gauge must count exactly those bytes
// when it is mapped, and nothing when it is not. Widths of 1 and 2 bytes
// hold fewer keys than the growth takes to the line, so they fill a quarter
// of their keys and stay on the heap.
func checkKeySet(t *testing.T, share, w int) {
	base := obsTableBytes.Value()
	s := newKeySet(4, w)
	s.share = share
	ref := map[uint64]bool{}
	accounted := func(step string) {
		t.Helper()
		bytes := int64(len(s.tab))
		if want := s.size*w + cellPad; bytes != int64(want) && (s.size != 0 || bytes != 0) {
			t.Fatalf("%s: a %d-cell table of %d-byte cells weighs %d bytes, want %d", step, s.size, w, bytes, want)
		}
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
	wmask := ^uint64(0) >> (64 - 8*w)
	for _, x := range []uint64{1, 2, 3, wmask, 42, 1 << (8*w - 1)} {
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
	if s.contains(99 & wmask) {
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
			k := widthKey(w, rng.Uint64())
			size := s.size
			if s.add(k) == ref[k] {
				t.Fatalf("%s: add(%x) freshness mismatch", step, k)
			}
			if !ref[k] {
				keys = append(keys, k)
			}
			ref[k] = true
			if s.size != size {
				if want := rampOf(size, share); s.size != want {
					t.Fatalf("%s: a %d-cell table grew to %d cells, want %d", step, size, s.size, want)
				}
			}
			if 4*s.len() > 3*s.size {
				t.Fatalf("%s: %d keys in %d cells, want load ≤ 3/4", step, s.len(), s.size)
			}
			if s.len()&(s.len()-1) == 0 {
				accounted(fmt.Sprintf("%s to %d keys", step, s.len()))
			}
		}
		members(step)
	}
	// 200,000 keys take a table by doubling to 2¹⁷ cells, then in one step
	// to 2¹⁹; 400,000 take it to 2²¹. A share of 4 takes the 4× step from
	// 2¹⁵ cells: 2¹⁷, 2¹⁹, then 2²¹. Whether a table is mapped depends on
	// its bytes: 2¹⁹ cells are mapped at 4 bytes a cell and up.
	n := min(200_000, widthSpace(w)/4)
	grow("growth", n)
	size := s.size
	s.release()
	for k := range ref {
		ref[k] = false
	}
	members("after release")
	if s.len() != 0 || s.tab != nil || s.size != 0 {
		t.Fatalf("release left %d keys in %d cells, want none", s.len(), s.size)
	}
	for _, k := range keys {
		before := s.size
		if !s.add(k) || s.add(k) {
			t.Fatalf("refill: add(%x) is not fresh once, then a duplicate", k)
		}
		ref[k] = true
		if s.size != before && s.size != rampOf(before, share) {
			t.Fatalf("refill: a %d-cell table grew to %d cells, want %d", before, s.size, rampOf(before, share))
		}
	}
	members("after refill")
	if s.size != size {
		t.Fatalf("refill with the same keys grew the table to %d cells, want the first fill's %d", s.size, size)
	}
	grow("regrowth", 2*n)
	if want := rampOf(size, share); s.size != want {
		t.Fatalf("regrowth: %d cells, want %d", s.size, want)
	}
	s.release()
	if got := obsTableBytes.Value() - base; got != 0 || s.tab != nil || s.len() != 0 {
		t.Fatalf("release left %d bytes mapped and %d cells", got, s.size)
	}
}

// rampOf is the size a table of size cells and the given share grows to by
// one add: twice the size while share such tables of 8-byte cells stay
// under mapTableBytes, four times from there on, whatever the cell width.
// A released set, with no table, grows to 16.
func rampOf(size, share int) int {
	if 8*2*size*share < mapTableBytes {
		return max(2*size, 16)
	}
	return 4 * size
}

// TestKeySetAddAfterRelease: a released set is a valid empty set, and its
// next insert grows a table from 16 cells. Before the 16-cell floor, growth
// from no table doubled a size of 0 forever; the add runs on a goroutine so
// such a spin fails the test instead of hanging it.
func TestKeySetAddAfterRelease(t *testing.T) {
	s := newKeySet(16, 8)
	s.add(3)
	s.release()
	done := make(chan bool, 1)
	go func() { done <- s.add(5) }()
	select {
	case fresh := <-done:
		if !fresh || !s.contains(5) || s.contains(3) || s.len() != 1 || s.size != 16 {
			t.Fatalf("add to a released set: fresh %v, len %d in %d cells", fresh, s.len(), s.size)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add to a released set did not return within 5 s")
	}
}

// TestKeySetLaneGrowth holds a lane's table to the schedule scaled by its
// share — at a share of 4 the 4× step comes at a quarter of the size — and then
// the lanes of a search: S1 on two lanes crosses the line, and no lane
// table ends larger than the smallest table for its keys, 2²⁰ cells: the
// sequential table's 2²¹ halved, where the unscaled 4× step would end each
// at 2²¹.
func TestKeySetLaneGrowth(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { checkKeySet(t, 4, 8) })
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
			if want := tableFor(s.len()); s.size > want {
				t.Errorf("lane %d: %d keys in %d cells, want at most %d", i, s.len(), s.size, want)
			}
			if runtime.GOOS == "linux" && s.mem == nil {
				t.Errorf("lane %d: a %d-cell table left on the heap, want it mapped", i, s.size)
			}
		}
	})
}

// TestKeySetGrowthHoldsOneTable: a mapped table's growth to a mapped one,
// the 4× step at any share, keeps every key and holds at most the new table
// plus one piece (rehashPiece bytes, whichever size was picked) at any
// point. The old table is the 2 MiB line's or two pieces, whichever is
// larger, of 8-byte cells and of 5- and 7-byte ones, which straddle the
// piece boundaries (and leave a short last piece, padding included). After
// each piece's keys have moved (pieceMoved) the test counts what the set
// holds: the old table's pieces not yet handed back, which the table-bytes
// gauge must count exactly and the one piece before which must read as
// zeros (its pages went back), plus the new table's pages that keys have
// touched; and the last cell starting in the piece, which may run into the
// next one, must have moved. The gauge is back at its base after release.
func TestKeySetGrowthHoldsOneTable(t *testing.T) {
	for _, share := range []int{1, 4} {
		t.Run(fmt.Sprintf("share=%d", share), func(t *testing.T) {
			for _, w := range []int{8, 5, 7} {
				t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) { checkGrowthHoldsOneTable(t, w, share) })
			}
		})
	}
}

func checkGrowthHoldsOneTable(t *testing.T, w, share int) {
	base := obsTableBytes.Value()
	size := 16
	for size*w < max(mapTableBytes, 2*rehashPiece) {
		size <<= 1
	}
	s := newKeySet(size, w)
	s.share = share
	if s.mem == nil {
		t.Skip("tables are mapped off the heap only on Linux")
	}
	rng := rand.New(rand.NewSource(11))
	var keys []uint64
	for s.len() < 3*size/4 {
		if k := widthKey(w, rng.Uint64()); s.add(k) {
			keys = append(keys, k)
		}
	}
	page := os.Getpagesize()
	cells := size * w // the old table's bytes of cells
	pieces := 0
	s.pieceMoved = func(old []byte, moved int) {
		start := pieces * rehashPiece
		pieces++
		if want := min(start+rehashPiece, cells); moved != want && !(want == cells && moved == len(old)) {
			t.Fatalf("piece %d ends at byte %d, want %d", pieces, moved, want)
		}
		if prev := old[max(start-rehashPiece, 0):start]; slices.ContainsFunc(prev, func(b byte) bool { return b != 0 }) {
			t.Fatalf("piece %d: the piece before it still reads keys: not handed back", pieces)
		}
		last := min((moved+w-1)/w, size) - 1 // the last cell starting in the piece
		if k := binary.LittleEndian.Uint64(old[last*w:]) & s.wmask; k != 0 && !s.contains(k) {
			t.Fatalf("piece %d: the key of cell %d, at bytes %d..%d, has not moved", pieces, last, last*w, last*w+w-1)
		}
		newBytes := int64(len(s.tab))
		oldHeld := obsTableBytes.Value() - base - newBytes
		if want := int64(len(old) - start); oldHeld != want {
			t.Fatalf("piece %d: the gauge holds %d bytes of the old table, want %d", pieces, oldHeld, want)
		}
		touched := 0
		for p := 0; p < len(s.tab); p += page {
			if slices.ContainsFunc(s.tab[p:min(p+page, len(s.tab))], func(b byte) bool { return b != 0 }) {
				touched++
			}
		}
		if held := oldHeld + int64(page*touched); held > newBytes+int64(rehashPiece) {
			t.Fatalf("piece %d: %d bytes held (%d of the old table, %d pages of the new), want at most the new table's %d plus a piece",
				pieces, held, oldHeld, touched, newBytes)
		}
	}
	for n := s.len(); s.len() == n; { // one more key grows the table
		if k := widthKey(w, rng.Uint64()); s.add(k) {
			keys = append(keys, k)
		}
	}
	if want := rampOf(size, share); s.size != want || s.mem == nil {
		t.Fatalf("grew to %d cells (mapped: %v), want %d mapped", s.size, s.mem != nil, want)
	}
	if want := (cells + rehashPiece - 1) / rehashPiece; pieces != want {
		t.Fatalf("the growth moved %d pieces, want %d", pieces, want)
	}
	for _, k := range keys {
		if !s.contains(k) {
			t.Fatalf("key %x lost in the growth", k)
		}
	}
	if s.len() != len(keys) {
		t.Fatalf("len %d after the growth, want %d", s.len(), len(keys))
	}
	if got, want := obsTableBytes.Value()-base, int64(s.size*w+cellPad); got != want {
		t.Fatalf("after the growth the gauge holds %d bytes, want the new table's %d", got, want)
	}
	s.release()
	if got := obsTableBytes.Value() - base; got != 0 {
		t.Fatalf("release left %d bytes held", got)
	}
}

func TestKeySetBudget(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { forWidths(t, checkKeySetBudget) })
}

// checkKeySetBudget holds growth to the state budget: a set told its
// search's MaxStates never grows past the smallest table that holds
// MaxStates + 1 keys at ¾ load — not by the ramp as chunks fill it, not for
// level estimates far past the budget — while it stays at most ¾ loaded up
// to the budget, and a chunk that crosses the budget still lands. A budget
// smaller than the table never shrinks it. The keys are w bytes wide with
// the top one set, and a budget is run at a width whose keys can fill its
// table: the narrowest widths run only the smallest.
func checkKeySetBudget(t *testing.T, w int) {
	for _, c := range []struct {
		maxStates int
		estimate  bool
	}{{40, false}, {1000, true}, {40_000, false}, {100_000, false}, {100_000, true}, {393_215, false}, {700_000, false}, {700_000, true}} {
		maxStates := c.maxStates
		if 2*tableFor(maxStates+1) > widthSpace(w) {
			continue
		}
		s := newKeySet(16, w)
		s.budget(maxStates)
		limit := tableFor(maxStates + 1)
		x := uint64(1)
		for s.len() <= maxStates {
			if c.estimate {
				s.reserve(max(s.len(), 1024)) // past the budget from half of it on
			}
			chunk := make([]uint64, min(1024, maxStates+1-s.len()))
			for i := range chunk {
				chunk[i] = widthKey(w, x)
				x++
			}
			if fresh := s.addChunk(chunk, nil); len(fresh) != len(chunk) {
				t.Fatalf("budget %d: %d of %d keys fresh", maxStates, len(fresh), len(chunk))
			}
			if s.size > limit || 4*s.len() > 3*s.size {
				t.Fatalf("budget %d: %d keys in %d cells, want at most %d cells at load ≤ 3/4",
					maxStates, s.len(), s.size, limit)
			}
		}
		if s.size != limit {
			t.Fatalf("budget %d: %d cells at the budget, want its table of %d", maxStates, s.size, limit)
		}
		// A chunk past the budget, as large as the table's free cells plus
		// one, must still find room: the one growth past the budget.
		over := make([]uint64, s.size-s.len()+1)
		for i := range over {
			over[i] = widthKey(w, x)
			x++
		}
		if fresh := s.addChunk(over, nil); len(fresh) != len(over) || s.len() >= s.size {
			t.Fatalf("budget %d: a chunk past it left %d keys in %d cells", maxStates, s.len(), s.size)
		}
		s.release()
	}
	// Past ¾ load of a table larger than its budget's, adds fill it and
	// leave it its size.
	size := min(1<<12, widthSpace(w))
	s := newKeySet(size, w)
	s.budget(size / 40)
	keys := size * 7 / 8
	for x := range keys {
		s.add(widthKey(w, uint64(x)))
	}
	if s.size != size || s.len() != keys {
		t.Fatalf("a budget under the table's size: %d keys in %d cells, want %d in %d", s.len(), s.size, keys, size)
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

// TestTableBytesFollowWidth: S1's states are 40 bits, so its sequential
// table, after its last growth to 2²¹ cells, holds them in 5-byte cells:
// the table-bytes gauge reads 2²¹ × 5 bytes plus the padding through the
// search's last levels, where 8-byte cells held 2²¹ × 8.
func TestTableBytesFollowWidth(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("tables are mapped off the heap only on Linux")
	}
	v := testVerifier(t, caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true})
	if v.keyBytes != 5 {
		t.Fatalf("S1's states take %d-byte cells, want 5", v.keyBytes)
	}
	base := obsTableBytes.Value()
	var size int   // the size of the table's last growth
	var held int64 // the gauge at the search's last expansion
	tableGrown = func(_ *keySet, n int) { size = n }
	expandState = func(v *Verifier, s uint64, sc *expandScratch, out []uint64, masks []uint32) ([]uint64, []uint32, int) {
		held = obsTableBytes.Value() - base
		return successors(v, s, sc, out, masks)
	}
	t.Cleanup(func() { tableGrown, expandState = nil, successors })
	if res, err := v.Run(); err != nil || res.States != 1440712 {
		t.Fatalf("S1: %+v, %v, want 1440712 states", res, err)
	}
	if want := int64(1<<21*5 + cellPad); size != 1<<21 || held != want {
		t.Fatalf("S1's table grew last to %d cells and held %d bytes, want 2²¹ cells in %d bytes", size, held, want)
	}
}
