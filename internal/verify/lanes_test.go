package verify

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"tightcps/internal/switching"
)

// The parallel driver (runLanes) is held to the same per-successor reference
// search as the sequential one (chunk_test.go): on schedulable slots every
// count must equal it, on violating slots the verdict must be the minimum
// violating packed state of the first violating level, found here by brute
// force over the reference search's own level.

// laneVerifier builds a Verifier that runs on the given number of lanes.
func laneVerifier(t testing.TB, ps []*switching.Profile, cfg Config, lanes int) *Verifier {
	t.Helper()
	v := testVerifier(t, ps, cfg)
	v.cfg.Workers = lanes
	return v
}

// lanesWant turns the reference search's outcome into what any lane count
// must report: the reference itself when the slot is schedulable, otherwise
// depth, levels 0..Depth and the violator of the violating level's
// smallest violating state.
func lanesWant(t *testing.T, ps []*switching.Profile, cfg Config) Result {
	t.Helper()
	want, err, visited := refBFS(t, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Schedulable {
		return want
	}
	want.Levels = want.Levels[:want.Depth+1]
	start := 0
	for _, w := range want.Levels[:want.Depth] {
		start += w
	}
	level := visited[start : start+want.Levels[want.Depth]]
	e := testVerifier(t, ps, cfg).Expander()
	scr := e.NewScratch()
	var buf []HashedState
	found := false
	var least PackedState
	for _, s := range level {
		var app int
		if buf, app = e.SuccessorsHashedInto(s, scr, buf[:0]); app >= 0 && (!found || s < least) {
			found, least, want.Violator = true, s, app
		}
	}
	if !found {
		t.Fatal("reference search stopped in a level without a violating state")
	}
	want.States, want.Transitions = start+len(level), 0 // Transitions is not promised on a violation
	return want
}

// TestLanesMatchReferenceBFS: lanes ∈ {2, 3, 4, 8} × symmetry /
// deterministic ties against the reference search —
// States, Transitions, Depth and Levels on schedulable slots; Depth,
// levels 0..Depth and the minimum-state violator on violating ones.
func TestLanesMatchReferenceBFS(t *testing.T) {
	asym := []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	for _, c := range []struct {
		name string
		ps   []*switching.Profile
		cfg  Config
	}{
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{NondetTies: true}},
		{"asymTriple", asym, Config{NondetTies: true}},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, Config{NondetTies: true}},
		{"S2/det", caseProfiles(t, "C6", "C2"), Config{}},
		{"C1C5C6", caseProfiles(t, "C1", "C5", "C6"), Config{NondetTies: true}},
		{"viol3", caseProfiles(t, "C6", "C2", "C1"), Config{NondetTies: true}},
		{"viol4", caseProfiles(t, "C1", "C5", "C4", "C6"), Config{NondetTies: true}},
		{"fleet5/sym", fleet(5, 6, 1, 2, 10), Config{NondetTies: true, SymmetryReduction: true}},
		{"fleet5/viol", fleet(5, 3, 1, 2, 10), Config{NondetTies: true}},
		{"fleet5/viol/sym", fleet(5, 3, 1, 2, 10), Config{NondetTies: true, SymmetryReduction: true}},
	} {
		want := lanesWant(t, c.ps, c.cfg)
		for _, lanes := range []int{2, 3, 4, 8} {
			got, err := laneVerifier(t, c.ps, c.cfg, lanes).Run()
			if !want.Schedulable {
				got.Transitions = 0
			}
			sameVerdict(t, fmt.Sprintf("%s lanes=%d", c.name, lanes), got, err, want, nil)
		}
	}
}

// TestLanesBudget holds the parallel search to the one budget rule the
// reference search computes: a run is ErrTooLarge iff levels 0..D — D the
// first violating level, or the last — hold more than MaxStates states,
// and then its Depth is the deepest level whose prefix fits, levels
// 0..Depth are the reference's and one more entry holds the part of the
// next level it stored, past the budget (how far past depends on the lane
// count: lanes notice the bust a piece apart). Budgets of 1, half of
// levels 0..D, one state short of them and exactly them, on schedulable
// and violating slots.
func TestLanesBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		ps   []*switching.Profile
		cfg  Config
	}{
		{"C1C5C6", caseProfiles(t, "C1", "C5", "C6"), Config{NondetTies: true}},
		{"fleet7/sym", fleet(7, 6, 1, 2, 9), Config{NondetTies: true, SymmetryReduction: true}},
		{"viol4", caseProfiles(t, "C1", "C5", "C4", "C6"), Config{NondetTies: true}},
		{"fleet5/viol", fleet(5, 3, 1, 2, 10), Config{NondetTies: true}},
	} {
		want := lanesWant(t, c.ps, c.cfg)
		n := want.States // levels 0..D
		for _, lanes := range []int{2, 3, 8} {
			for _, max := range []int{1, n / 2, n - 1, n} {
				cfg := c.cfg
				cfg.MaxStates = max
				got, err := laneVerifier(t, c.ps, cfg, lanes).Run()
				name := fmt.Sprintf("%s lanes=%d MaxStates=%d", c.name, lanes, max)
				if max == n {
					if !want.Schedulable {
						got.Transitions = 0
					}
					sameVerdict(t, name, got, err, want, nil)
					continue
				}
				depth := 0
				for through := want.Levels[0]; through+want.Levels[depth+1] <= max; depth++ {
					through += want.Levels[depth+1]
				}
				if !errors.Is(err, ErrTooLarge) || got.Depth != depth {
					t.Fatalf("%s: depth %d, %v; want ErrTooLarge at depth %d", name, got.Depth, err, depth)
				}
				checkLevels(t, name, got)
				if len(got.Levels) != depth+2 || !slices.Equal(got.Levels[:depth+1], want.Levels[:depth+1]) || got.States <= max || got.States > n {
					t.Fatalf("%s: levels %v, %d states; want %v and part of the next, past the budget and at most %d", name, got.Levels, got.States, want.Levels[:depth+1], n)
				}
			}
		}
	}
}

// TestLanesSyntheticGraph runs the generic driver on a layered graph whose
// level widths sit below, on and above serialLevelThreshold and whose widest
// level generates more successors than one round stages, under owner
// functions from even to degenerate: every state on one lane, every state
// on the last partition, two partitions only (most lanes empty), partitions
// by level, and the real hash. State (level l, index i) is l<<32 | i+1;
// violators maps a state to the application that misses its deadline there.
// The lanes route by hashKey, so a planted owner function stores state x as
// the word unmix(h), where h is a 53-bit scramble of x with the partition
// bits above it set by the owner function: the tables still probe from mixed
// low bits, and the successor function reads x back from the hash.
func TestLanesSyntheticGraph(t *testing.T) {
	widths := []int{1, 3, serialLevelThreshold - 1, serialLevelThreshold, serialLevelThreshold + 1, 40, 2000, 3 * stageCap / 2, 700, 1}
	// succ appends s's successors to out; lanes call it concurrently.
	succ := func(violators map[uint64]int, s uint64, out []uint64) ([]uint64, int) {
		if app, ok := violators[s]; ok {
			return out, app
		}
		l, i := int(s>>32), int(uint32(s))-1
		if l+1 == len(widths) {
			return out, -1
		}
		// As in TestSequentialChunkBoundaries: neighbours overlap and every
		// expansion repeats its first successor.
		w, wl := widths[l+1], widths[l]
		first := len(out)
		for j := i*w/wl - 1; j <= (i+1)*w/wl+1; j++ {
			out = append(out, uint64(l+1)<<32|uint64((j+w)%w+1))
		}
		return append(out, out[first]), -1
	}
	v := testVerifier(t, []*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{})
	const unlimited = 1 << 30
	at := func(l, i int) uint64 { return uint64(l)<<32 | uint64(i+1) }
	// A coder stores each state under an owner function: word is state x's
	// word, state the state of word w. The real hash stores x as itself.
	type coder struct{ word, state func(uint64) uint64 }
	self := func(x uint64) uint64 { return x }
	const low53 = 1<<53 - 1
	planted := func(bits func(x uint64) uint64) coder {
		return coder{
			word:  func(x uint64) uint64 { return unmix(bits(x) | scramble(x)) },
			state: func(w uint64) uint64 { return unscramble(hashKey(w) & low53) },
		}
	}
	var coding coder
	var violators map[uint64]int
	plant(t, v, func(_ *Verifier, w uint64, _ *expandScratch, out []uint64, masks []uint32) ([]uint64, []uint32, int) {
		n := len(out)
		out, app := succ(violators, coding.state(w), out)
		for i := n; i < len(out); i++ {
			out[i] = coding.word(out[i])
		}
		return out, masks, app
	})
	run := func(lanes int, c coder, viol map[uint64]int, max int) (Result, error) {
		v.cfg.MaxStates, coding, violators = max, c, viol
		return runLanes(v, lanes, c.word(1))
	}
	var buf []uint64
	want, werr, visited := refSearch(uint64(1), unlimited, func(s uint64) ([]uint64, int) {
		var app int
		buf, app = succ(nil, s, buf[:0])
		return buf, app
	})
	if !slices.Equal(want.Levels, widths) {
		t.Fatalf("the synthetic graph's levels hold %v states, want %v", want.Levels, widths)
	}
	// A state's lane is part of its hash's bits 26..57; the top five of
	// them pick it for any lane count up to 20.
	owners := map[string]coder{
		"hashKey":       {self, self},
		"allOnFirst":    planted(func(uint64) uint64 { return 0 }),
		"allOnLast":     planted(func(uint64) uint64 { return 0x1f << 53 }),
		"twoPartitions": planted(func(x uint64) uint64 { return x & 1 << 57 }),
		"byLevel":       planted(func(x uint64) uint64 { return x >> 32 << 54 }),
	}
	for name, c := range owners {
		for _, lanes := range []int{1, 2, 3, 8, 20} {
			label := fmt.Sprintf("%s lanes=%d", name, lanes)
			got, gerr := run(lanes, c, nil, unlimited)
			sameVerdict(t, label, got, gerr, want, werr)

			// Three violating states in level 6 and one in level 7: the
			// verdict is the violator of level 6's smallest word, whichever
			// lanes own them.
			viol := map[uint64]int{at(6, 1500): 4, at(6, 77): 2, at(6, 1999): 1, at(7, 0): 3}
			wantApp := -1
			var least uint64
			for x, app := range viol {
				if w := c.word(x); x>>32 == 6 && (wantApp < 0 || w < least) {
					wantApp, least = app, w
				}
			}
			got, gerr = run(lanes, c, viol, unlimited)
			if gerr != nil || got.Schedulable || got.Depth != 6 || got.Violator != wantApp || !slices.Equal(got.Levels, widths[:7]) {
				t.Fatalf("%s: %+v, %v; want violator %d at depth 6 after the 3580 states of levels 0..6", label, got, gerr, wantApp)
			}
			checkLevels(t, label, got)

			// A violator late in the widest level, which takes several
			// rounds: the rounds before have inserted their successors. A
			// budget of exactly levels 0..7 trips on those inserts, the
			// rounds after sweep the level without inserting, and the
			// violator is still the verdict; one state less busts at depth 6.
			late := map[uint64]int{at(7, widths[7]-1): 5}
			through7 := 0
			for _, w := range widths[:8] {
				through7 += w
			}
			for _, max := range []int{unlimited, through7} {
				got, gerr = run(lanes, c, late, max)
				if gerr != nil || got.Schedulable || got.Depth != 7 || got.Violator != 5 || !slices.Equal(got.Levels, widths[:8]) {
					t.Fatalf("%s MaxStates=%d: %+v, %v; want violator 5 at depth 7", label, max, got, gerr)
				}
				checkLevels(t, label, got)
			}
			got, gerr = run(lanes, c, late, through7-1)
			if !errors.Is(gerr, ErrTooLarge) || got.Depth != 6 || len(got.Levels) != 8 || !slices.Equal(got.Levels[:7], widths[:7]) {
				t.Fatalf("%s MaxStates=%d: %+v, %v; want a bust at depth 6", label, through7-1, got, gerr)
			}
			checkLevels(t, label, got)

			for _, max := range []int{1, 600, len(visited) / 2, len(visited) - 1} {
				got, gerr = run(lanes, c, nil, max)
				if !errors.Is(gerr, ErrTooLarge) || got.States <= max || got.States > len(visited) {
					t.Fatalf("%s MaxStates=%d: %d states, %v", label, max, got.States, gerr)
				}
				checkLevels(t, label, got)
			}
		}
	}
}

// TestLanesPins pins the parallel engine on the slots the pipeline benchmark
// pins: V5 = S1 + C6 violates at depth 12 with C4 (index 2) the violator of
// its smallest violating state — not the sequential engine's C1 — and the
// seven-instance fleet W7 at depth 2 with F3, for every lane count.
func TestLanesPins(t *testing.T) {
	for _, c := range []struct {
		name            string
		ps              []*switching.Profile
		depth, violator int
	}{
		{"V5", caseProfiles(t, "C1", "C5", "C4", "C3", "C6"), 12, 2},
		{"W7", fleet(7, 2, 1, 2, 8), 2, 3},
	} {
		for _, lanes := range []int{0, 2, 3} {
			res, err := Slot(c.ps, Config{NondetTies: true, Workers: lanes})
			if err != nil || res.Schedulable || res.Depth != c.depth || res.Violator != c.violator {
				t.Fatalf("%s Workers=%d: %+v, %v; want violator %d at depth %d", c.name, lanes, res, err, c.violator, c.depth)
			}
		}
	}
}

// unmix is the inverse of mix: mix(unmix(h)) == h.
func unmix(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= invMix2
	x ^= x>>27 ^ x>>54
	x *= invMix1
	x ^= x>>30 ^ x>>60
	return x
}

// scramble is a bijection of the 53-bit words whose low bits depend on
// every bit of x; unscramble inverts it. (x ^= x>>27 is its own inverse
// below 2⁵³.)
func scramble(x uint64) uint64 {
	x = x * golden & (1<<53 - 1)
	return x ^ x>>27
}

func unscramble(x uint64) uint64 {
	x ^= x >> 27
	return x * invGolden & (1<<53 - 1)
}

const golden = 0x9e3779b97f4a7c15

// The multiplicative inverses, modulo 2⁶⁴, of mix's two multipliers and of
// scramble's.
var invMix1, invMix2, invGolden = inverse(0xbf58476d1ce4e5b9), inverse(0x94d049bb133111eb), inverse(golden)

// inverse is the multiplicative inverse of an odd c modulo 2⁶⁴ (Newton's
// iteration doubles the correct low bits: 3, 6, …, 96).
func inverse(c uint64) uint64 {
	inv := c
	for range 5 {
		inv *= 2 - c*inv
	}
	return inv
}
