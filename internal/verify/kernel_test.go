package verify

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// kernelSuccessors expands one packed state through the kernel the way the
// traced sequential driver does — disturbance masks asked for.
func (v *Verifier) kernelSuccessors(s PackedState, sc *expandScratch, out []PackedState) ([]PackedState, []uint32, int) {
	ks, masks, viol := successors(v, uint64(s), sc, nil, []uint32{})
	for _, k := range ks {
		out = append(out, PackedState(k))
	}
	return out, masks, viol
}

// sameExpansion holds the kernel to the reference on one state: the same
// successors in the same order, the same disturbance masks, the same
// violator. It returns the successors, nil on a violation.
func sameExpansion(t testing.TB, v *Verifier, s PackedState, rsc *refScratch, ksc *expandScratch) []PackedState {
	t.Helper()
	want, wantMasks, wantViol := v.refSuccessors(s, rsc, nil)
	got, gotMasks, gotViol := v.kernelSuccessors(s, ksc, nil)
	if gotViol != wantViol {
		t.Fatalf("state %x: kernel violator %d, reference %d", s, gotViol, wantViol)
	}
	if wantViol >= 0 {
		if len(got) != 0 || len(gotMasks) != 0 {
			t.Fatalf("state %x: the kernel kept %d successors and %d masks of a violating expansion", s, len(got), len(gotMasks))
		}
		return nil
	}
	if !slices.Equal(got, want) {
		t.Fatalf("state %x: successors differ\n kernel    %x\n reference %x", s, got, want)
	}
	if !slices.Equal(gotMasks, wantMasks) {
		t.Fatalf("state %x: disturbance masks differ\n kernel    %b\n reference %b", s, gotMasks, wantMasks)
	}
	return want
}

// kernelModes is the mode matrix of the kernel: {eager, lazy} ×
// {nondeterministic, deterministic ties} × {symmetry off, on}.
func kernelModes() []Config {
	var out []Config
	for m := 0; m < 8; m++ {
		cfg := Config{NondetTies: m&2 == 0, SymmetryReduction: m&4 != 0}
		if m&1 != 0 {
			cfg.Policy = sched.PreemptLazy
		}
		out = append(out, cfg)
	}
	return out
}

func modeName(cfg Config) string {
	return fmt.Sprintf("policy=%d/nondet=%v/sym=%v", cfg.Policy, cfg.NondetTies, cfg.SymmetryReduction)
}

// syntheticSlots draws small slots from the synthetic fleet generator: the
// archetypes' computed profiles (their own r, T*w and dwell tables), grouped
// 2 to 5 at a time with instances of one design repeated so that symmetry
// classes occur.
func syntheticSlots(t testing.TB, want int) [][]*switching.Profile {
	t.Helper()
	w := plants.Synthetic(plants.SyntheticOptions{N: 24, Seed: 1})
	var arch []*switching.Profile
	done := map[int]bool{}
	for i, d := range w.ArchetypeOf {
		if done[d] {
			continue
		}
		done[d] = true
		p, err := switching.Compute(plants.SwitchingPlant(w.Apps[i]), switching.Config{Horizon: 800, Workers: 1})
		if err != nil {
			continue
		}
		if p.R <= p.TwStar {
			p.ClampTwStar(p.R - 1)
		}
		arch = append(arch, p)
	}
	if len(arch) < 3 {
		t.Fatalf("only %d synthetic archetypes have a profile", len(arch))
	}
	var slots [][]*switching.Profile
	for k := 0; len(slots) < want; k++ {
		n := 2 + k%4
		var ps []*switching.Profile
		for i := 0; i < n; i++ {
			// Every third slot repeats designs: two or three instances of one.
			a := arch[(k+i*(1+k/len(arch)))%len(arch)]
			if k%3 == 2 {
				a = arch[(k+i/2)%len(arch)]
			}
			ps = append(ps, a.Clone(fmt.Sprintf("%s#%d", a.Name, i)))
		}
		slots = append(slots, ps)
	}
	return slots
}

// TestKernelMatchesReference is the kernel's contract: on every state of a
// breadth-first sweep — levels thinned to a fixed width so that a capped
// sweep still reaches the deep levels, where evictions, lazy preemption and
// deadline misses live — the kernel's successor list, order included, its
// violator and its disturbance masks are the reference expansion's. The
// sweep expands violating states too (the drivers stop there; the contract
// does not). The slots span the paper's sets, fleets that fill the word and
// generated slots.
func TestKernelMatchesReference(t *testing.T) {
	type slot struct {
		name string
		ps   []*switching.Profile
		cap  int // states per mode
	}
	slots := []slot{
		{"S2", caseProfiles(t, "C6", "C2"), 3000},
		{"V5", caseProfiles(t, "C1", "C5", "C4", "C3", "C6"), 3000},
		{"F9", fleet(9, 8, 1, 2, 9), 3000},
		{"W7", fleet(7, 5, 1, 2, 8), 3000},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, 1000},
		{"full/8r32", append(fleet(7, 6, 1, 2, 32), prof("X", 4, 2, 3, 12)), 1500},  // eight 7-bit lanes and the header: 64 bits
		{"full/6r127", append(fleet(5, 9, 1, 2, 127), prof("X", 4, 2, 3, 60)), 800}, // six 9-bit lanes, the widest
	}
	if testing.Short() {
		slots = slots[:5]
	} else {
		for i, ps := range syntheticSlots(t, 30) {
			slots = append(slots, slot{fmt.Sprintf("synthetic%02d", i), ps, 600})
		}
	}
	states := 0
	for _, sl := range slots {
		for _, cfg := range kernelModes() {
			v := testVerifier(t, sl.ps, cfg)
			states += sweepKernel(t, fmt.Sprintf("%s/%s", sl.name, modeName(cfg)), v, sl.cap)
		}
	}
	t.Logf("%d states compared over %d slots", states, len(slots))
}

// sweepKernel runs sameExpansion over a thinned breadth-first sweep of v's
// state space from the initial state, at most limit states, and returns how
// many it compared.
func sweepKernel(t testing.TB, name string, v *Verifier, limit int) int {
	t.Helper()
	const width = 256 // states kept per level
	var rsc refScratch
	var ksc expandScratch
	init := v.Expander().Initial()
	seen := map[PackedState]bool{init: true}
	frontier := []PackedState{init}
	n := 0
	for len(frontier) > 0 && n < limit {
		var next []PackedState
		for _, s := range frontier {
			if n++; n > limit {
				break
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: state %x: %v", name, s, r)
					}
				}()
				for _, ns := range sameExpansion(t, v, s, &rsc, &ksc) {
					if !seen[ns] {
						seen[ns] = true
						next = append(next, ns)
					}
				}
			}()
		}
		// Thin the level: every stride-th state, so the sweep keeps its
		// spread over the level and its depth under the cap.
		if stride := (len(next) + width - 1) / width; stride > 1 {
			kept := next[:0]
			for i := 0; i < len(next); i += stride {
				kept = append(kept, next[i])
			}
			next = kept
		}
		frontier = next
	}
	return min(n, limit)
}

// TestNewRejectsMalformedDwell: a dwell table that holds no window — a
// negative entry, Tdw− above Tdw+, too few rows for T*w, a granularity below
// one — is refused by New in an ErrEncoding that names the application, the
// row and the values, before any state is expanded (and so before any
// verdict can be cached).
func TestNewRejectsMalformedDwell(t *testing.T) {
	ok := prof("Fine", 2, 2, 4, 10)
	bad := func(edit func(p *switching.Profile)) *switching.Profile {
		p := prof("Bad", 2, 2, 4, 10)
		edit(p)
		return p
	}
	for _, tc := range []struct {
		name string
		p    *switching.Profile
		want string
	}{
		{"negative Tdw+", bad(func(p *switching.Profile) { p.TdwPlus[1] = -1 }), "Bad has no dwell window at row 1: Tdw−=2, Tdw+=-1"},
		{"negative window", bad(func(p *switching.Profile) { p.TdwMinus[2], p.TdwPlus[2] = -3, -1 }), "Bad has no dwell window at row 2: Tdw−=-3, Tdw+=-1"},
		{"inverted window", bad(func(p *switching.Profile) { p.TdwMinus[0], p.TdwPlus[0] = 5, 3 }), "Bad has no dwell window at row 0: Tdw−=5, Tdw+=3"},
		{"Tdw− past the cap", bad(func(p *switching.Profile) { p.TdwMinus = append(p.TdwMinus, 16) }), "Bad has no dwell window at row 3: Tdw−=16, Tdw+=15"},
		{"short Tdw−", bad(func(p *switching.Profile) { p.TdwMinus = p.TdwMinus[:2] }), "Bad has dwell tables of 2/3 rows, T*w=2 at granularity 1 needs 3"},
		{"short Tdw+", bad(func(p *switching.Profile) { p.TdwPlus = nil }), "Bad has dwell tables of 3/0 rows"},
		{"coarse grid short", bad(func(p *switching.Profile) {
			p.Granularity, p.TwStar = 2, 3
			p.TdwMinus, p.TdwPlus = p.TdwMinus[:2], p.TdwPlus[:2]
		}), "T*w=3 at granularity 2 needs 3"},
		{"zero granularity", bad(func(p *switching.Profile) { p.Granularity = 0 }), "Bad has granularity 0"},
		{"negative T*w", bad(func(p *switching.Profile) { p.TwStar = -1 }), "Bad has T*w=-1"},
	} {
		for _, cfg := range []Config{{NondetTies: true}, {SymmetryReduction: true}} {
			_, err := New([]*switching.Profile{ok, tc.p}, cfg)
			if !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q, want ErrEncoding holding %q", tc.name, err, tc.want)
			}
			if _, err := Slot([]*switching.Profile{tc.p, ok}, cfg); !errors.Is(err, ErrEncoding) {
				t.Errorf("%s: Slot returned %v, want ErrEncoding and no verdict", tc.name, err)
			}
		}
	}
	// A coarse grid whose table covers T*w is fine: waits between grid
	// points read the next point's row.
	coarse := prof("Coarse", 4, 2, 4, 10)
	coarse.Granularity, coarse.TdwMinus, coarse.TdwPlus = 2, []int{1, 2, 3}, []int{3, 4, 5}
	v, err := New([]*switching.Profile{coarse}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range []dwell{{1, 3}, {2, 4}, {2, 4}, {3, 5}, {3, 5}} {
		if got := v.kt.rows[int(v.kt.row[0])+w]; got != want {
			t.Errorf("coarse grid, wait %d: window %v, want %v", w, got, want)
		}
	}
}

// TestNewCostBounded pins the per-job floor behind verify.small_verdict_us:
// the kernel table is part of the Verifier and its dwell rows are per
// application and per wait, so building one for a two-application slot is
// two allocations of a bounded size — not a fill of maxApps × maxClock rows.
func TestNewCostBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	ps := caseProfiles(t, "C6", "C2")
	const maxBytes, maxAllocs, runs = 1024, 2, 200
	var v *Verifier
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		var err error
		if v, err = New(ps, Config{NondetTies: true}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("New on a 2-app slot: %d allocations, %d B; want ≤ %d and ≤ %d B", allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("New on a 2-app slot: %d allocations, %d B", allocs, bytes)
	if rows := ps[0].TwStar + ps[1].TwStar + 2; len(v.kt.rows) != rows || cap(v.kt.rows) != rows {
		t.Fatalf("%d dwell rows (cap %d), want %d: one per application and wait", len(v.kt.rows), cap(v.kt.rows), rows)
	}
}

// fuzzSet reads a small valid application set and a mode from the fuzz
// input. n selects 1 to 8 applications (eight 7-bit lanes fill the word;
// eight at r > 32 do not fit it).
// mode: bits 0–1 unused (they held the removed disturbance bound, so the
// committed seeds keep their meaning), bit 2 lazy preemption, bit 3
// deterministic ties, bit 4 the symmetry quotient, bits 5–6 the number of
// designs k (0: every application its own; else application i is an
// instance of design i mod k, so symmetry classes occur). data holds four
// bytes per application — r − 1 (r ≤ 40), T*w (below r), then the two state
// bytes drawState reads — then occupant and dwell, then one byte per design
// and wait for the dwell rows: Tdw− in the low nibble, Tdw+ − Tdw− in the
// high one, clipped to maxTdw. Missing bytes read as zero.
func fuzzSet(n, mode uint8, at func(int) int) ([]*switching.Profile, Config) {
	ps := make([]*switching.Profile, 1+int(n)%8)
	designs := int(mode >> 5 & 3)
	if designs == 0 {
		designs = len(ps)
	}
	row := 4*len(ps) + 2
	for i := range ps {
		if i >= designs {
			ps[i] = ps[i%designs].Clone(fmt.Sprintf("F%d", i))
			continue
		}
		r := 1 + at(4*i)%40
		ps[i] = prof(fmt.Sprintf("F%d", i), at(4*i+1)%r, 0, 0, r)
		for w := range ps[i].TdwMinus {
			b := at(row)
			row++
			ps[i].TdwMinus[w] = b % (maxTdw + 1)
			ps[i].TdwPlus[w] = ps[i].TdwMinus[w] + b>>4%(maxTdw+1-ps[i].TdwMinus[w])
		}
	}
	cfg := Config{NondetTies: mode&8 == 0, SymmetryReduction: mode&16 != 0}
	if mode&4 != 0 {
		cfg.Policy = sched.PreemptLazy
	}
	return ps, cfg
}

// FuzzKernelVsReference draws a small application set, a mode and one
// storable state of the set (fuzzSet, drawState) and holds the kernel to the
// reference expansion on that state and on each of its successors: equal
// successor lists, masks and violator
// (sameExpansion), and no panic but the reference's own "occupant without
// dwell window" — an occupant whose wait at grant exceeds its T*w, which no
// search reaches; those states are skipped on the reference's verdict. The
// seed corpus in testdata/fuzz/FuzzKernelVsReference holds the boundaries:
// r a power of two with Cooldown clocks at r − 1, T*w = r − 1 with waiters
// at and past the deadline, the dwell at 15, eight 7-bit lanes filling the
// word, all lanes Steady (2ⁿ choices), and a two-class fleet whose occupant
// sits in a class the canonical form reorders or whose occupant is evicted.
// A set past the one word (eight applications at r > 32) must be refused
// with ErrEncoding; the target then stops.
func FuzzKernelVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, mode uint8, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		ps, cfg := fuzzSet(n, mode, at)
		v, err := New(ps, cfg)
		if oneWord(ps) {
			if err != nil {
				t.Fatalf("a set inside every limit was refused: %v", err)
			}
		} else {
			if !errors.Is(err, ErrEncoding) {
				t.Fatalf("a set past the one word was not refused with ErrEncoding: %v", err)
			}
			return
		}
		c := drawState(ps, at)
		s := PackedState(v.pack(&c))
		var rsc refScratch
		var ksc expandScratch
		for _, ns := range append([]PackedState{s}, sameExpansionReachable(t, v, s, &rsc, &ksc)...) {
			sameExpansionReachable(t, v, ns, &rsc, &ksc)
		}
	})
}

// sameExpansionReachable is sameExpansion, skipping the states whose
// reference expansion panics for an occupant without a dwell window.
func sameExpansionReachable(t testing.TB, v *Verifier, s PackedState, rsc *refScratch, ksc *expandScratch) []PackedState {
	t.Helper()
	unreachable := func() (skip bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != "verify: occupant without dwell window" {
					panic(r)
				}
				skip = true
			}
		}()
		v.refSuccessors(s, rsc, nil)
		return false
	}()
	if unreachable {
		return nil
	}
	return sameExpansion(t, v, s, rsc, ksc)
}
