package mapping

import (
	"reflect"
	"testing"

	"tightcps/internal/switching"
)

// TestFingerprintOrderIndependent: any permutation of the same profile set
// fingerprints identically; changed content does not.
func TestFingerprintOrderIndependent(t *testing.T) {
	a, b, c := mkProfile("A", 3, 2), mkProfile("B", 5, 1), mkProfile("C", 7, 4)
	base := Fingerprint([]*switching.Profile{a, b, c})
	perms := [][]*switching.Profile{
		{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a},
	}
	for i, p := range perms {
		if Fingerprint(p) != base {
			t.Errorf("permutation %d fingerprints differently", i)
		}
	}
	// Recomputed-but-identical profiles hash the same.
	if Fingerprint([]*switching.Profile{mkProfile("B", 5, 1), mkProfile("A", 3, 2), mkProfile("C", 7, 4)}) != base {
		t.Error("identical recomputed profiles fingerprint differently")
	}
	// A renamed-but-identical profile is a fleet instance of the same design:
	// the fingerprint deliberately ignores names, so the set hashes the same
	// and the admission verdict is shared.
	if Fingerprint([]*switching.Profile{a, b, mkProfile("D", 7, 4)}) != base {
		t.Error("fleet instance (renamed, identical content) fingerprints differently")
	}
	distinct := map[uint64]string{base: "A,B,C"}
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"subset", []*switching.Profile{a, b}},
		{"retimed", []*switching.Profile{a, b, mkProfile("C", 8, 4)}},
		{"retabled", []*switching.Profile{a, b, mkProfile("C", 7, 5)}},
		{"duplicated", []*switching.Profile{a, b, c, c}},
	} {
		fp := Fingerprint(tc.ps)
		if prev, clash := distinct[fp]; clash {
			t.Errorf("%s collides with %s", tc.name, prev)
		}
		distinct[fp] = tc.name
	}
	// A changed table entry (same length) must also change the fingerprint.
	d := mkProfile("C", 7, 4)
	d.TdwMinus[3]++
	if Fingerprint([]*switching.Profile{a, b, d}) == base {
		t.Error("changed dwell-table entry not reflected in fingerprint")
	}
}

// ask is the mappers' question through the cache for a whole set: a hit, or
// a verifier run whose verdict is stored.
func ask(c *Cache, set []*switching.Profile, vf VerifyFunc) (bool, error) {
	return c.do(Fingerprint(set), func() []*switching.Profile { return set }, vf)
}

// TestCacheHitMissAccounting: the underlying verifier runs once per distinct
// set; permutations are hits.
func TestCacheHitMissAccounting(t *testing.T) {
	a, b := mkProfile("A", 3, 2), mkProfile("B", 5, 1)
	calls := 0
	vf := func([]*switching.Profile) (bool, error) { calls++; return true, nil }
	c := NewCache()
	for i := 0; i < 3; i++ {
		if ok, err := ask(c, []*switching.Profile{a, b}, vf); !ok || err != nil {
			t.Fatalf("ask: %v %v", ok, err)
		}
	}
	if ok, err := ask(c, []*switching.Profile{b, a}, vf); !ok || err != nil {
		t.Fatalf("permuted ask: %v %v", ok, err)
	}
	if calls != 1 {
		t.Fatalf("verifier ran %d times, want 1", calls)
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d, want 3/1/1", hits, misses, c.Len())
	}
}

// TestCacheErrorNotCached: a failing verification is retried, not memoized.
func TestCacheErrorNotCached(t *testing.T) {
	a := mkProfile("A", 3, 2)
	calls := 0
	vf := func([]*switching.Profile) (bool, error) {
		calls++
		if calls == 1 {
			return false, errTest
		}
		return true, nil
	}
	c := NewCache()
	if _, err := ask(c, []*switching.Profile{a}, vf); err == nil {
		t.Fatal("error swallowed")
	}
	ok, err := ask(c, []*switching.Profile{a}, vf)
	if !ok || err != nil {
		t.Fatalf("retry after error: %v %v", ok, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// TestCachedFirstFitIdentical: with the real exact verifier, the cached run
// returns a byte-identical partition to the uncached one, and a warm cache
// answers every admission check without a single verifier run.
func TestCachedFirstFitIdentical(t *testing.T) {
	ps := caseStudyProfiles(t)
	plain, err := FirstFitCached(ps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	cold, err := FirstFitCached(ps, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Slots, plain.Slots) {
		t.Fatalf("cached slots %v, uncached %v", cold.Slots, plain.Slots)
	}
	if cold.CacheMisses != cold.Verifications || cold.CacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d verifications=%d",
			cold.CacheHits, cold.CacheMisses, cold.Verifications)
	}
	warm, err := FirstFitCached(ps, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Slots, plain.Slots) {
		t.Fatalf("warm slots %v, uncached %v", warm.Slots, plain.Slots)
	}
	if warm.CacheMisses != 0 || warm.CacheHits != warm.Verifications {
		t.Fatalf("warm run: hits=%d misses=%d verifications=%d",
			warm.CacheHits, warm.CacheMisses, warm.Verifications)
	}
}

// TestOptimalCachedEliminatesDuplicates: sharing a cache between first-fit
// and the DP partitioner, every subset is verified at most once — the
// partitioner's misses are exactly the subsets first-fit did not already
// settle, and a second sweep is all hits.
func TestOptimalCachedEliminatesDuplicates(t *testing.T) {
	ps := []*switching.Profile{
		mkProfile("A", 1, 1), mkProfile("B", 2, 1),
		mkProfile("C", 3, 1), mkProfile("D", 4, 1),
	}
	calls := 0
	vf := stubVerify(func(names []string) bool {
		return len(names) <= 2
	})
	counted := func(p []*switching.Profile) (bool, error) {
		calls++
		return vf(p)
	}
	cache := NewCache()
	ff, err := FirstFitCached(ps, counted, cache)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalCached(ps, counted, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Slots) != 2 || len(ff.Slots) != 2 {
		t.Fatalf("partitions: ff=%d opt=%d slots", len(ff.Slots), len(opt.Slots))
	}
	if calls != cache.Len() {
		t.Fatalf("verifier ran %d times for %d distinct subsets", calls, cache.Len())
	}
	if opt.CacheHits == 0 {
		t.Fatal("partitioner re-verified subsets first-fit already settled")
	}
	if opt.Verifications != 15 { // 2⁴−1 subset admission checks
		t.Fatalf("partitioner made %d admission checks, want 15", opt.Verifications)
	}
	if opt.CacheHits+opt.CacheMisses != opt.Verifications {
		t.Fatalf("hit/miss accounting: %d+%d != %d",
			opt.CacheHits, opt.CacheMisses, opt.Verifications)
	}
	calls = 0
	again, err := OptimalCached(ps, counted, cache)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || again.CacheMisses != 0 || again.CacheHits != 15 {
		t.Fatalf("warm sweep: calls=%d hits=%d misses=%d",
			calls, again.CacheHits, again.CacheMisses)
	}
	if !reflect.DeepEqual(again.Slots, opt.Slots) {
		t.Fatalf("warm partition %v, cold %v", again.Slots, opt.Slots)
	}
}
