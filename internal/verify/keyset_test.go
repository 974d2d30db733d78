package verify

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// contains reports membership.
func (s *keySet[K]) contains(k K) bool {
	var zero K
	for i := hashKey(k) & s.mask; ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case zero:
			return false
		case k:
			return true
		}
	}
}

// narrowKey and wideKey lift one test word into a key of either width; no
// nonzero word lifts to the zero key.
func narrowKey(x uint64) [1]uint64 { return [1]uint64{x} }

func wideKey(x uint64) [wideWords]uint64 {
	return [wideWords]uint64{x, x * 0x9e3779b97f4a7c15, ^x}
}

// The four tests below keep the names of the u64Set and wideSet tests they
// replace; each runs the one generic check at its width, on the same keys.
func TestU64Set(t *testing.T)               { checkKeySet(t, narrowKey, false) }
func TestWideSetGrowth(t *testing.T)        { checkKeySet(t, wideKey, false) }
func TestU64SetZeroKeyPanics(t *testing.T)  { checkZeroKeyPanics[[1]uint64](t) }
func TestWideSetZeroKeyPanics(t *testing.T) { checkZeroKeyPanics[[wideWords]uint64](t) }

// checkKeySet holds the visited set to its contract against a map: fresh
// and duplicate adds, membership and length, growth from a four-slot
// request through several rehashes and past the 2 MiB line where tables
// leave the heap (mapped to mapped included), then reset, refill with the
// same keys, regrowth and release. Every growth must follow the rule —
// double under 2 MiB, quadruple from a doubling that reaches it, or double
// throughout for a lane's set (doubling) — with the load at most ¾ after
// every add. At every step the table-bytes gauge must count exactly the
// table's bytes when it is mapped, and nothing when it is not.
func checkKeySet[K stateKey](t *testing.T, key func(uint64) K, doubling bool) {
	base := obsTableBytes.Value()
	s := newKeySet[K](4)
	s.doubling = doubling
	ref := map[K]bool{}
	accounted := func(step string) {
		t.Helper()
		var k K
		bytes := int64(8 * len(k) * len(s.slots))
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
		if !s.add(key(x)) {
			t.Fatalf("fresh add(%#x) returned false", x)
		}
		ref[key(x)] = true
	}
	for k := range ref {
		if s.add(k) {
			t.Fatalf("duplicate add(%x) returned true", k)
		}
	}
	if s.contains(key(99)) {
		t.Fatal("contains(99) true")
	}
	members("small")
	// grow adds fresh random keys until the set holds n, checking each add,
	// each growth and the table's accounting whenever the count is a power
	// of two.
	rng := rand.New(rand.NewSource(7))
	var keys []K // every key grow added, in order
	grow := func(step string, n int) {
		t.Helper()
		for s.len() < n {
			k := key(rng.Uint64() | 1)
			size := len(s.slots)
			if s.add(k) == ref[k] {
				t.Fatalf("%s: add(%x) freshness mismatch", step, k)
			}
			if !ref[k] {
				keys = append(keys, k)
			}
			ref[k] = true
			if len(s.slots) != size {
				if want := rampOf[K](size, doubling); len(s.slots) != want {
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
	// 200,000 narrow keys take a table by doubling to 2¹⁷ slots (1 MiB),
	// then in one step to 2¹⁹, mapped; 400,000 take it to 2²¹, or,
	// doubling, to 2²⁰. A wide key is 24 bytes, so 150,000 take a table to
	// 2¹⁶ (1.5 MiB), then to 2¹⁸; 300,000 take it to 2²⁰, or, doubling,
	// from 2¹⁸ to 2¹⁹: each count ends one growth step past the other.
	n := 200_000
	if len(key(1)) > 1 {
		n = 150_000
	}
	grow("growth", n)
	size := len(s.slots)
	s.reset()
	for k := range ref {
		ref[k] = false
	}
	members("after reset")
	if s.len() != 0 || len(s.slots) != size {
		t.Fatalf("reset left %d keys in %d slots, want 0 in %d", s.len(), len(s.slots), size)
	}
	for _, k := range keys {
		if !s.add(k) || s.add(k) {
			t.Fatalf("refill: add(%x) is not fresh once, then a duplicate", k)
		}
		ref[k] = true
	}
	members("after refill")
	if len(s.slots) != size {
		t.Fatalf("refill with the same keys moved the table from %d to %d slots", size, len(s.slots))
	}
	grow("regrowth", 2*n)
	if want := rampOf[K](size, doubling); len(s.slots) != want {
		t.Fatalf("regrowth: %d slots, want %d", len(s.slots), want)
	}
	s.release()
	if got := obsTableBytes.Value() - base; got != 0 || s.slots != nil || s.len() != 0 {
		t.Fatalf("release left %d bytes mapped and %d slots", got, len(s.slots))
	}
}

// rampOf is the size a table of size slots grows to by one add: twice the
// size while that stays under mapTableBytes, four times from there on — or
// twice throughout, doubling.
func rampOf[K stateKey](size int, doubling bool) int {
	var k K
	if doubling || 8*len(k)*2*size < mapTableBytes {
		return 2 * size
	}
	return 4 * size
}

// TestKeySetLaneGrowth holds a lane's table to the doubling policy at both
// widths, past the 2 MiB line too, and then the lanes of a search: S1 on two
// lanes crosses the line, and no lane table ends larger than the doubling
// policy's table for its keys — the 4× step would end each at twice that.
func TestKeySetLaneGrowth(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { checkKeySet(t, narrowKey, true) })
	t.Run("wide", func(t *testing.T) { checkKeySet(t, wideKey, true) })
	t.Run("S1/workers=2", func(t *testing.T) {
		v := laneVerifier(t, caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true}, false, 2)
		e := newNode(v, 2, successors[[1]uint64], hashKey[[1]uint64])
		defer e.Release()
		e.Absorb([][]uint64{appendKey(nil, initialState[[1]uint64](v))})
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
				t.Errorf("lane %d: %d keys in %d slots, want the doubling policy's %d", i, s.len(), len(s.slots), want)
			}
			if runtime.GOOS == "linux" && s.mem == nil {
				t.Errorf("lane %d: a %d-slot table left on the heap, want it mapped", i, len(s.slots))
			}
		}
	})
}

func TestKeySetBudget(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { checkKeySetBudget(t, narrowKey) })
	t.Run("wide", func(t *testing.T) { checkKeySetBudget(t, wideKey) })
}

// checkKeySetBudget holds growth to the state budget: a set told its
// search's MaxStates never grows past the smallest table that holds
// MaxStates + 1 keys at ¾ load — not by the ramp as chunks fill it, not for
// level estimates far past the budget — while it stays at most ¾ loaded up
// to the budget, and a chunk that crosses the budget still lands. A budget
// smaller than the table never shrinks it.
func checkKeySetBudget[K stateKey](t *testing.T, key func(uint64) K) {
	for _, c := range []struct {
		maxStates int
		estimate  bool
	}{{40_000, false}, {100_000, false}, {100_000, true}, {393_215, false}, {700_000, false}, {700_000, true}} {
		maxStates := c.maxStates
		s := newKeySet[K](16)
		s.budget(maxStates)
		limit := tableFor(maxStates + 1)
		x := uint64(1)
		for s.len() <= maxStates {
			if c.estimate {
				s.reserve(max(s.len(), 1024)) // past the budget from half of it on
			}
			chunk := make([]K, min(1024, maxStates+1-s.len()))
			for i := range chunk {
				chunk[i] = key(mix(x))
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
		over := make([]K, len(s.slots)-s.len()+1)
		for i := range over {
			over[i] = key(mix(x))
			x++
		}
		if fresh := s.addChunk(over, nil); len(fresh) != len(over) || s.len() >= len(s.slots) {
			t.Fatalf("budget %d: a chunk past it left %d keys in %d slots", maxStates, s.len(), len(s.slots))
		}
		s.release()
	}
	// Past ¾ load of a table larger than its budget's, adds fill it and
	// leave it its size.
	s := newKeySet[K](1 << 12)
	s.budget(100)
	for x := uint64(1); x <= 3500; x++ {
		s.add(key(x))
	}
	if len(s.slots) != 1<<12 || s.len() != 3500 {
		t.Fatalf("a budget under the table's size: %d keys in %d slots, want 3500 in %d", s.len(), len(s.slots), 1<<12)
	}
}

// checkZeroKeyPanics checks that adding the reserved zero key panics.
func checkZeroKeyPanics[K stateKey](t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("adding the zero key did not panic")
		}
	}()
	var zero K
	newKeySet[K](4).add(zero)
}

// TestStateKeyHashPinned pins hashKey and lessKey on fixed keys of both
// widths: the narrow rows to the values of the functions they replaced
// (hashU64, raw uint64 order), the wide rows to the seeded splitmix64 chain
// over three words, recomputed outside Go when the wide key lost its
// always-zero fourth word. A state's shard (ShardOf: its owner node), its
// partition within a node and the minimum-violator order are functions of
// them, so a change here moves states between partitions and nodes — a
// protoVersion bump, not a refactor.
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
		if got := hashKey([1]uint64{c.k}); got != c.want {
			t.Errorf("hashKey(%#x) = %#x, want %#x", c.k, got, c.want)
		}
	}
	for _, c := range []struct {
		k    [wideWords]uint64
		want uint64
	}{
		{[wideWords]uint64{0, 0, wideIdle}, 0x186ecc33eb9b67e3}, // the wide initial state
		{[wideWords]uint64{1, 2, 3}, 0xeadba27e20362828},
		{[wideWords]uint64{^uint64(0), 0x9e3779b97f4a7c15, 0x1FF}, 0x4e0b224e410a70a3},
	} {
		if got := hashKey(c.k); got != c.want {
			t.Errorf("hashKey(%#x) = %#x, want %#x", c.k, got, c.want)
		}
	}
	for _, c := range []struct {
		a, b [wideWords]uint64
		want bool
	}{
		{[wideWords]uint64{3, 4, 6}, [wideWords]uint64{3, 4, 5}, false},
		{[wideWords]uint64{1, 9, 9}, [wideWords]uint64{2, 0, 0}, true},
		{[wideWords]uint64{2, 0, 0}, [wideWords]uint64{2, 0, 1}, true},
		{[wideWords]uint64{1, 2, 3}, [wideWords]uint64{1, 2, 3}, false},
	} {
		if got := lessKey(c.a, c.b); got != c.want {
			t.Errorf("lessKey(%x, %x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, c := range [][2]uint64{{1, 2}, {2, 1}, {5, 5}, {1 << 63, 1<<63 - 1}, {0xF << 32, 0xF<<32 | 1}} {
		if got := lessKey([1]uint64{c[0]}, [1]uint64{c[1]}); got != (c[0] < c[1]) {
			t.Errorf("lessKey(%#x, %#x) = %v, want the raw uint64 order", c[0], c[1], got)
		}
	}
}
