package mapping

// The key contract of the cached mappers: FirstFitCached and OptimalCached
// build their cache keys incrementally, and those keys must be the ones
// Fingerprint gives — in memory, against whole-set questions, and against
// cache files written before the accumulator existed.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// designFleet builds instances profiles of each of designs designs; design d
// weighs 1 + d%3 (its max Tdw−) for capacityVerifier.
func designFleet(designs, instances int) []*switching.Profile {
	var ps []*switching.Profile
	for d := 0; d < designs; d++ {
		for k := 0; k < instances; k++ {
			ps = append(ps, mkProfile(fmt.Sprintf("D%d-%d", d, k), 3+d, 1+d%3))
		}
	}
	return ps
}

// capacityVerifier admits a set while its summed max Tdw− fits capacity: an
// order-independent stand-in for the exact verifier.
func capacityVerifier(capacity int) VerifyFunc {
	return func(set []*switching.Profile) (bool, error) {
		w := 0
		for _, p := range set {
			w += p.MaxTdwMinus()
		}
		return w <= capacity, nil
	}
}

// mustNotVerify fails the test when a warm cache lets a question through.
func mustNotVerify(t *testing.T) VerifyFunc {
	return func(set []*switching.Profile) (bool, error) {
		t.Errorf("the verifier ran on a set of %d; the cache should have answered", len(set))
		return false, nil
	}
}

// TestIncrementalKeysMatchFingerprint: over seeded random fleets, every
// verdict the cached mappers store sits under Fingerprint of the set the
// verifier was handed, salted as NewCacheFor salts it, and a cache filled by
// a mapper answers whole-set questions on those sets without a miss.
func TestIncrementalKeysMatchFingerprint(t *testing.T) {
	mappers := map[string]func([]*switching.Profile, VerifyFunc, *Cache) (*Result, error){
		"first-fit": FirstFitCached,
		"optimal":   OptimalCached,
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		ps := designFleet(1+rng.Intn(4), 3)
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		ps = ps[:1+rng.Intn(len(ps))]
		capacity := 3 + rng.Intn(8) // at least the heaviest design alone
		salt := uint64(0)
		if trial%2 == 1 {
			salt = VerifyConfigKey(verify.Config{NondetTies: true, MaxStates: trial})
		}
		for name, mapper := range mappers {
			want := map[uint64]Record{}
			var asked [][]*switching.Profile
			admit := capacityVerifier(capacity)
			vf := func(set []*switching.Profile) (bool, error) {
				asked = append(asked, set)
				key := Fingerprint(set)
				if salt != 0 {
					key = mix64(key ^ salt)
				}
				ok, err := admit(set)
				want[key] = Record{Schedulable: ok}
				return ok, err
			}
			cache := NewCacheFor(salt)
			res, err := mapper(ps, vf, cache)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !reflect.DeepEqual(cache.verdicts, want) {
				t.Fatalf("trial %d %s (%d profiles, salt %#x): cache holds %d verdicts, the verifier's sets fingerprint to %d, or they differ",
					trial, name, len(ps), salt, len(cache.verdicts), len(want))
			}
			if res.CacheMisses != len(asked) {
				t.Fatalf("trial %d %s: %d misses for %d verifier runs", trial, name, res.CacheMisses, len(asked))
			}
			for _, set := range asked {
				if _, err := ask(cache, set, mustNotVerify(t)); err != nil {
					t.Fatal(err)
				}
			}
			if _, misses := cache.Stats(); misses != len(asked) {
				t.Fatalf("trial %d %s: a whole-set question on the mapper's sets missed %d times", trial, name, misses-len(asked))
			}
		}
	}
}

// TestPersistedKeysUnchanged pins the values that live outside the process:
// Fingerprint and VerifyConfigKey as literals, and a cache file written by
// FirstFitCached before the accumulator change that must still load, under
// the salt it was written with, and answer the same first-fit run without
// one miss. The file's salt hashed a disturbance bound of 3, a field since
// removed; the config keys without it are the values they had before.
func TestPersistedKeysUnchanged(t *testing.T) {
	set := []*switching.Profile{mkProfile("A", 3, 2), mkProfile("B", 5, 1), mkProfile("C", 7, 4)}
	if got, want := Fingerprint(set), uint64(0xa7df079aaba6d2a5); got != want {
		t.Errorf("Fingerprint = %#x, want %#x: persisted caches and the admission service's record keys would orphan", got, want)
	}
	if got := Fingerprint(nil); got != 0 {
		t.Errorf("Fingerprint(nil) = %#x, want 0", got)
	}
	cfg := verify.Config{NondetTies: true, MaxStates: 1_000_000, Policy: sched.PreemptLazy}
	if got, want := VerifyConfigKey(cfg), uint64(0x541881ea24c12819); got != want {
		t.Errorf("VerifyConfigKey = %#x, want %#x", got, want)
	}
	if got, want := VerifyConfigKey(cfg, 2), uint64(0x072b4929fe102c10); got != want {
		t.Errorf("VerifyConfigKey with an extra salt = %#x, want %#x", got, want)
	}

	f, err := os.Open("testdata/firstfit-pr26.cache")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cache := NewCacheFor(0xde12a83e82fbd629) // the salt the file was written under
	if err := cache.Load(f); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 22 {
		t.Fatalf("loaded %d verdicts, the file was written with 22", cache.Len())
	}
	res, err := FirstFitCached(designFleet(6, 3), mustNotVerify(t), cache)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8}, {9, 10, 11, 12, 13, 14}, {15, 16, 17}}
	if !reflect.DeepEqual(res.Slots, wantSlots) || res.Verifications != 38 || res.CacheHits != 38 || res.CacheMisses != 0 {
		t.Fatalf("slots %v, %d checks, %d hits, %d misses; the parent's run (capacity 9) gave %v with 38 checks",
			res.Slots, res.Verifications, res.CacheHits, res.CacheMisses, wantSlots)
	}
}

// TestWarmMappingAllocs: on a warm cache the mappers allocate for their
// result — O(profiles + slots) — and nothing per admission check: no profile
// list is built for a question the cache answers.
func TestWarmMappingAllocs(t *testing.T) {
	fleet := designFleet(12, 7) // 84 profiles; capacity 9 packs them into 19 slots
	sample := fleet[:10]
	cache := NewCache()
	cold, err := FirstFitCached(fleet, capacityVerifier(9), cache)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := OptimalCached(sample, capacityVerifier(9), cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 84 || len(cold.Slots) != 19 || cold.Verifications != 757 || dp.Verifications != 1023 {
		t.Fatalf("fixture moved: %d profiles, %d slots, %d + %d checks", len(fleet), len(cold.Slots), cold.Verifications, dp.Verifications)
	}
	vf := mustNotVerify(t)
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := FirstFitCached(fleet, vf, cache); err != nil || len(res.Slots) != 19 {
			t.Errorf("warm first-fit: %d slots, err %v", len(res.Slots), err)
		}
		if res, err := OptimalCached(sample, vf, cache); err != nil || len(res.Slots) != len(dp.Slots) {
			t.Errorf("warm DP: %d slots, err %v", len(res.Slots), err)
		}
	})
	t.Logf("%.0f allocations for %d warm checks", allocs, cold.Verifications+dp.Verifications)
	// 97 when written; 4,498 at the parent, which built a profile list per check.
	if limit := float64(2 * (len(fleet) + len(cold.Slots))); allocs > limit {
		t.Errorf("%.0f allocations for a warm first-fit + DP, limit %.0f: is something allocated per check?", allocs, limit)
	}
}
