// Package mapping implements the paper's resource-mapping layer (Sec. 5):
// applications are sorted by ascending T*w (ties by smaller max Tdw−) and
// placed first-fit into TT slots, where admission into a slot is decided by
// the exact model-checking verification of internal/verify. For small
// application sets an exact minimum-slot partition (DP over verified
// subsets) is also provided, quantifying how close first-fit comes to the
// optimum.
package mapping

import (
	"fmt"
	"math/bits"
	"sort"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// VerifyFunc decides whether a set of applications can share one slot.
// The default is the zero config's Admission.
type VerifyFunc func(profiles []*switching.Profile) (bool, error)

// Result is a slot dimensioning outcome.
type Result struct {
	// Slots lists, per TT slot, the indices into the input profile list.
	Slots [][]int
	// Verifications counts admission checks performed (cache hits included).
	Verifications int
	// CacheHits and CacheMisses count admission checks the memoization
	// cache answered / did not answer. Both stay zero when no cache is used.
	CacheHits   int
	CacheMisses int
}

// SlotNames renders the partition with application names.
func (r *Result) SlotNames(profiles []*switching.Profile) [][]string {
	out := make([][]string, len(r.Slots))
	for si, slot := range r.Slots {
		for _, i := range slot {
			out[si] = append(out[si], profiles[i].Name)
		}
	}
	return out
}

// traffic snapshots c's lookup counts; the func it returns stores the
// lookups since then in r, so a cache shared across runs still yields
// per-run accounting. A nil cache has none.
func (r *Result) traffic(c *Cache) func() {
	if c == nil {
		return func() {}
	}
	h0, m0 := c.Stats()
	return func() {
		h1, m1 := c.Stats()
		r.CacheHits, r.CacheMisses = h1-h0, m1-m0
	}
}

// SortOrder returns the paper's mapping order: ascending T*w, ties broken
// by smaller max Tdw− (T−*dw), then by name for determinism.
func SortOrder(profiles []*switching.Profile) []int {
	idx := make([]int, len(profiles))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := profiles[idx[a]], profiles[idx[b]]
		if x.TwStar != y.TwStar {
			return x.TwStar < y.TwStar
		}
		if mx, my := x.MaxTdwMinus(), y.MaxTdwMinus(); mx != my {
			return mx < my
		}
		return x.Name < y.Name
	})
	return idx
}

// FirstFitCached runs the paper's first-fit heuristic with the given
// admission verifier (the zero config's Admission when nil), its verdicts
// memoized through cache (nil memoizes nothing). Result.CacheHits/
// CacheMisses report the cache traffic of this run alone.
func FirstFitCached(profiles []*switching.Profile, vf VerifyFunc, cache *Cache) (*Result, error) {
	if vf == nil {
		vf = NewAdmission(verify.Config{}).Verify
	}
	res := &Result{}
	defer res.traffic(cache)()
	// Each profile is hashed once; a slot's key grows with the slot, so a
	// question the cache can answer costs no pass over any dwell table.
	h := profileHashes(profiles)
	var slotKey []setKey
	for _, i := range SortOrder(profiles) {
		placed := false
		for si := range res.Slots {
			trialKey := slotKey[si].with(h[i])
			res.Verifications++
			ok, err := cache.do(trialKey.fingerprint(), func() []*switching.Profile {
				trial := make([]*switching.Profile, 0, len(res.Slots[si])+1)
				for _, j := range res.Slots[si] {
					trial = append(trial, profiles[j])
				}
				return append(trial, profiles[i])
			}, vf)
			if err != nil {
				return nil, fmt.Errorf("mapping: verifying slot %d + %s: %w", si, profiles[i].Name, err)
			}
			if ok {
				res.Slots[si] = append(res.Slots[si], i)
				slotKey[si] = trialKey
				placed = true
				break
			}
		}
		if !placed {
			res.Slots = append(res.Slots, []int{i})
			slotKey = append(slotKey, setKey{}.with(h[i]))
		}
	}
	return res, nil
}

// OptimalCached computes the exact minimum number of slots by verifying
// every subset of applications (2ⁿ admission checks) and covering the set
// with the fewest feasible subsets (set-partition DP). Practical for
// n ≤ 10ish; the case study has n = 6. Verdicts are memoized through cache
// (nil memoizes nothing): a cache pre-populated by an earlier first-fit run
// — or by a previous sweep over the same profiles — eliminates every
// duplicate subset verification from the 2ⁿ enumeration. A nil vf is the
// zero config's Admission.
func OptimalCached(profiles []*switching.Profile, vf VerifyFunc, cache *Cache) (*Result, error) {
	if vf == nil {
		vf = NewAdmission(verify.Config{}).Verify
	}
	n := len(profiles)
	if n == 0 {
		return &Result{}, nil
	}
	if n > 16 {
		return nil, fmt.Errorf("mapping: optimal partitioning limited to 16 apps, got %d", n)
	}
	res := &Result{}
	defer res.traffic(cache)()
	full := 1<<n - 1
	feasible := make([]bool, full+1)
	feasible[0] = true
	// A subset's key is the key of the subset without its lowest member,
	// plus that member: one addition per mask.
	h := profileHashes(profiles)
	key := make([]setKey, full+1)
	for mask := 1; mask <= full; mask++ {
		key[mask] = key[mask&(mask-1)].with(h[bits.TrailingZeros(uint(mask))])
		// Monotonicity shortcut: a superset of an infeasible set is
		// infeasible — but slot feasibility is not necessarily monotone
		// under EDF (anomalies), so every subset is verified directly.
		res.Verifications++
		ok, err := cache.do(key[mask].fingerprint(), func() []*switching.Profile {
			var sub []*switching.Profile
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					sub = append(sub, profiles[i])
				}
			}
			return sub
		}, vf)
		if err != nil {
			return nil, err
		}
		feasible[mask] = ok
	}
	// DP over subsets: best[mask] = min slots covering mask.
	const inf = 1 << 30
	best := make([]int, full+1)
	choice := make([]int, full+1)
	for mask := 1; mask <= full; mask++ {
		best[mask] = inf
		// Iterate submasks containing the lowest set bit (canonical).
		low := mask & -mask
		for sub := mask; sub > 0; sub = (sub - 1) & mask {
			if sub&low == 0 || !feasible[sub] {
				continue
			}
			if v := best[mask^sub] + 1; v < best[mask] {
				best[mask] = v
				choice[mask] = sub
			}
		}
		if best[mask] == inf && bits.OnesCount(uint(mask)) == 1 {
			return nil, fmt.Errorf("mapping: application %s infeasible even alone",
				profiles[bits.TrailingZeros(uint(mask))].Name)
		}
	}
	if best[full] >= inf {
		return nil, fmt.Errorf("mapping: no feasible partition")
	}
	for mask := full; mask > 0; {
		sub := choice[mask]
		var slot []int
		for i := 0; i < n; i++ {
			if sub&(1<<i) != 0 {
				slot = append(slot, i)
			}
		}
		res.Slots = append(res.Slots, slot)
		mask ^= sub
	}
	return res, nil
}
