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
	return [wideWords]uint64{x, x * 0x9e3779b97f4a7c15, ^x, 1}
}

// The four tests below keep the names of the u64Set and wideSet tests they
// replace; each runs the one generic check at its width, on the same keys.
func TestU64Set(t *testing.T)               { checkKeySet(t, narrowKey) }
func TestWideSetGrowth(t *testing.T)        { checkKeySet(t, wideKey) }
func TestU64SetZeroKeyPanics(t *testing.T)  { checkZeroKeyPanics[[1]uint64](t) }
func TestWideSetZeroKeyPanics(t *testing.T) { checkZeroKeyPanics[[wideWords]uint64](t) }

// checkKeySet holds the visited set to its contract against a map: fresh
// and duplicate adds, membership and length, growth from a four-slot
// request through several rehashes and past the 2 MiB line where tables
// leave the heap (mapped to mapped included), then reset, refill with the
// same keys, regrowth and release. At every step the table-bytes gauge
// must count exactly the table's bytes when it is mapped, and nothing when
// it is not.
func checkKeySet[K stateKey](t *testing.T, key func(uint64) K) {
	base := obsTableBytes.Value()
	s := newKeySet[K](4)
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
	// grow adds fresh random keys until the set holds n, checking each add
	// and the table's accounting whenever the count is a power of two.
	rng := rand.New(rand.NewSource(7))
	var keys []K // every key grow added, in order
	grow := func(step string, n int) {
		t.Helper()
		for s.len() < n {
			k := key(rng.Uint64() | 1)
			if s.add(k) == ref[k] {
				t.Fatalf("%s: add(%x) freshness mismatch", step, k)
			}
			if !ref[k] {
				keys = append(keys, k)
			}
			ref[k] = true
			if s.len()&(s.len()-1) == 0 {
				accounted(fmt.Sprintf("%s to %d keys", step, s.len()))
			}
		}
		members(step)
		if len(s.slots) < 4*n/3 {
			t.Fatalf("%s: %d keys in %d slots, want load ≤ 3/4", step, n, len(s.slots))
		}
	}
	// 200,000 keys take a table of either width to 2¹⁹ slots — mapped from
	// 2¹⁸ slots on when narrow, from 2¹⁶ when wide — and 400,000 to 2²⁰.
	grow("growth", 200_000)
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
	grow("regrowth", 400_000)
	if len(s.slots) != 2*size {
		t.Fatalf("regrowth: %d slots, want %d", len(s.slots), 2*size)
	}
	s.release()
	if got := obsTableBytes.Value() - base; got != 0 || s.slots != nil || s.len() != 0 {
		t.Fatalf("release left %d bytes mapped and %d slots", got, len(s.slots))
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
// widths to the values of the functions they replaced (hashU64, hashW,
// raw uint64 order, lessW), computed at the parent commit: a state's shard
// (ShardOf: its owner node and checkpoint segment), its partition within a
// node and the segment order are functions of them, so a change here moves
// states between partitions, nodes and files — a protoVersion bump, not a
// refactor.
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
		{[wideWords]uint64{0, 0, 0, wideIdle}, 0x8f922b3c8bb038b0}, // the wide initial state
		{[wideWords]uint64{1, 2, 3, 4}, 0xde59611246bc83f8},
		{[wideWords]uint64{^uint64(0), 0, 0x9e3779b97f4a7c15, 0x1FF}, 0xe5d4f9766e3197fb},
	} {
		if got := hashKey(c.k); got != c.want {
			t.Errorf("hashKey(%#x) = %#x, want %#x", c.k, got, c.want)
		}
	}
	for _, c := range []struct {
		a, b [wideWords]uint64
		want bool
	}{
		{[wideWords]uint64{3, 4, 5, 6}, [wideWords]uint64{3, 4, 5, 5}, false},
		{[wideWords]uint64{1, 9, 9, 9}, [wideWords]uint64{2, 0, 0, 0}, true},
		{[wideWords]uint64{2, 0, 0, 0}, [wideWords]uint64{2, 0, 0, 1}, true},
		{[wideWords]uint64{1, 2, 3, 4}, [wideWords]uint64{1, 2, 3, 4}, false},
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
