package verify

import (
	"errors"
	"fmt"
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
// depth and size of the violating level and the violator of its smallest
// violating state.
func lanesWant(t *testing.T, ps []*switching.Profile, cfg Config) Result {
	t.Helper()
	want, err, visited, levels := refBFS(t, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Schedulable {
		return want
	}
	start := 0
	for _, w := range levels[:want.Depth] {
		start += w
	}
	level := visited[start : start+levels[want.Depth]]
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
// States, Transitions and Depth on schedulable slots; Depth, the size of
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

// TestLanesBudget: a budget of 1, of half the states and of all but the last
// one ends the parallel search with ErrTooLarge and more states than the
// budget (how many more depends on the lane count: lanes notice the bust a
// piece apart); the exact number of states is within budget.
func TestLanesBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		ps   []*switching.Profile
		cfg  Config
	}{
		{"C1C5C6", caseProfiles(t, "C1", "C5", "C6"), Config{NondetTies: true}},
		{"fleet7/sym", fleet(7, 6, 1, 2, 9), Config{NondetTies: true, SymmetryReduction: true}},
	} {
		want, _, _, _ := refBFS(t, c.ps, c.cfg)
		n := want.States
		for _, lanes := range []int{2, 3, 8} {
			for _, max := range []int{1, n / 2, n - 1, n} {
				cfg := c.cfg
				cfg.MaxStates = max
				got, err := laneVerifier(t, c.ps, cfg, lanes).Run()
				name := fmt.Sprintf("%s lanes=%d MaxStates=%d", c.name, lanes, max)
				if max == n {
					sameVerdict(t, name, got, err, want, nil)
					continue
				}
				if !errors.Is(err, ErrTooLarge) {
					t.Fatalf("%s: err %v, want ErrTooLarge", name, err)
				}
				if got.States <= max || got.States > n {
					t.Fatalf("%s: stopped at %d states, want more than the budget and at most %d", name, got.States, n)
				}
			}
		}
	}
}

// TestLanesSyntheticGraph runs the generic driver on a layered graph whose
// level widths sit below, on and above serialLevelThreshold and whose widest
// level generates more successors than one round stages, under owner
// functions from even to degenerate: every state on one lane, every state
// on the last partition, two partitions only (most lanes empty), and the
// real hash. State (level l, index i) is l<<32 | i+1; violators maps a
// state to the application that misses its deadline there.
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
	run := func(lanes int, hash func(uint64) uint64, violators map[uint64]int, max int) (Result, error) {
		v.cfg.MaxStates = max
		return runLanes(v, lanes, 1, func(_ *Verifier, s uint64, _ *expandScratch, out []uint64, masks []uint32) ([]uint64, []uint32, int) {
			out, app := succ(violators, s, out)
			return out, masks, app
		}, hash)
	}
	var buf []uint64
	want, werr, visited, levels := refSearch(uint64(1), unlimited, func(s uint64) ([]uint64, int) {
		var app int
		buf, app = succ(nil, s, buf[:0])
		return buf, app
	})
	for l, w := range widths {
		if levels[l] != w {
			t.Fatalf("level %d of the synthetic graph has %d states, want %d", l, levels[l], w)
		}
	}
	state := func(l, i int) uint64 { return uint64(l)<<32 | uint64(i+1) }
	owners := map[string]func(uint64) uint64{
		"hashKey":       hashKey,
		"allOnFirst":    func(uint64) uint64 { return 0 },
		"allOnLast":     func(uint64) uint64 { return ^uint64(0) },
		"twoPartitions": func(k uint64) uint64 { return k << 63 },
		"byLevel":       func(k uint64) uint64 { return k >> 32 << 61 },
	}
	for name, hash := range owners {
		for _, lanes := range []int{1, 2, 3, 8, 20} {
			got, gerr := run(lanes, hash, nil, unlimited)
			sameVerdict(t, fmt.Sprintf("%s lanes=%d", name, lanes), got, gerr, want, werr)

			// Three violating states in level 6 and one in level 7: the
			// verdict is level 6's smallest, whichever lanes own them.
			viol := map[uint64]int{state(6, 1500): 4, state(6, 77): 2, state(6, 1999): 1, state(7, 0): 3}
			got, gerr = run(lanes, hash, viol, unlimited)
			if gerr != nil || got.Schedulable || got.Depth != 6 || got.Violator != 2 || got.States != 1+3+511+512+513+40+2000 {
				t.Fatalf("%s lanes=%d: %+v, %v; want violator 2 at depth 6 after the 3580 states of levels 0..6", name, lanes, got, gerr)
			}

			// A violator late in the widest level, which takes several
			// rounds: the rounds before have inserted their successors.
			got, gerr = run(lanes, hash, map[uint64]int{state(7, widths[7]-1): 5}, unlimited)
			if gerr != nil || got.Schedulable || got.Depth != 7 || got.Violator != 5 || got.States != 3580+widths[7] {
				t.Fatalf("%s lanes=%d: %+v, %v; want violator 5 at depth 7", name, lanes, got, gerr)
			}

			for _, max := range []int{1, 600, len(visited) / 2, len(visited) - 1} {
				got, gerr = run(lanes, hash, nil, max)
				if !errors.Is(gerr, ErrTooLarge) || got.States <= max || got.States > len(visited) {
					t.Fatalf("%s lanes=%d MaxStates=%d: %d states, %v", name, lanes, max, got.States, gerr)
				}
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
