package verify

import (
	"math/rand"
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

// checkKeySet holds the visited set to its contract: fresh and duplicate
// adds, membership and length, and growth through several rehashes from a
// four-slot request against a map.
func checkKeySet[K stateKey](t *testing.T, key func(uint64) K) {
	s := newKeySet[K](4)
	ref := map[K]bool{}
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
		if !s.contains(k) {
			t.Fatalf("contains(%x) false", k)
		}
	}
	if s.contains(key(99)) {
		t.Fatal("contains(99) true")
	}
	if s.len() != len(ref) {
		t.Fatalf("len=%d, want %d", s.len(), len(ref))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := key(rng.Uint64() | 1)
		if s.add(k) == ref[k] {
			t.Fatalf("add(%x) freshness mismatch", k)
		}
		ref[k] = true
	}
	for k := range ref {
		if !s.contains(k) {
			t.Fatalf("lost key %x after growth", k)
		}
	}
	if s.len() != len(ref) || len(s.slots) < 4*len(ref)/3 {
		t.Fatalf("len=%d in %d slots, want %d at load ≤ 3/4", s.len(), len(s.slots), len(ref))
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
// raw uint64 order, lessW), computed at the parent commit: ownerOf, the
// mesh's owners[h>>58], the checkpoint shards and the segment order are
// functions of them, so a change here moves states between partitions,
// nodes and files — a protoVersion bump, not a refactor.
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
