package verify

import (
	"runtime"
	"testing"

	"tightcps/internal/obs"
)

// The allocation gates of the zero-allocation expansion core: once a
// search goroutine's scratch has grown to the verifier's maximum fanout,
// expanding a state must not allocate at all, and a whole sequential
// verification must stay at O(1) amortized allocations per visited state
// (set growth and the level store's blocks are the only remaining
// sources), its bytes within what its two largest adjacent levels hold.
// Regressions here are what `go test -bench VerifyFull -cpuprofile` at the
// repository root and the verify.s1_allocs_per_op row of benchmark/ exist
// to diagnose.

// expansionAllocs runs the first three BFS levels of v's state space through
// the expansion core, warming a scratch and the buffers, and returns the
// allocations of one more sweep over every state met and how many there are.
func expansionAllocs[K stateKey](v *Verifier) (float64, int) {
	var sc expandScratch
	var states, succBuf []K
	var choiceBuf []uint32
	visited := newKeySet[K](1 << 12)
	frontier := []K{initialState[K](v)}
	visited.add(frontier[0])
	for d := 0; d < 3; d++ {
		var next []K
		for _, s := range frontier {
			states = append(states, s)
			var viol int
			succBuf, choiceBuf, viol = successors(v, s, &sc, succBuf[:0], choiceBuf[:0])
			if viol >= 0 {
				continue
			}
			for _, ns := range succBuf {
				if visited.add(ns) {
					next = append(next, ns)
				}
			}
		}
		frontier = next
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range states {
			succBuf, choiceBuf, _ = successors(v, s, &sc, succBuf[:0], choiceBuf[:0])
		}
	})
	return allocs, len(states)
}

// TestExpansionCoreAllocFree gates the steady state of the core: expanding
// any warmed-up batch of states through a scratch performs zero
// allocations, on the narrow encoding, the wide encoding, and the symmetry
// quotient.
func TestExpansionCoreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	for _, tc := range []struct {
		name string
		n, r int
		cfg  Config
	}{
		{"narrow", 4, 10, Config{NondetTies: true}},
		{"wide", 7, 65, Config{NondetTies: true}},
		{"symmetry", 5, 10, Config{NondetTies: true, SymmetryReduction: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := New(fleet(tc.n, 6, 1, 2, tc.r), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if v.wide != (tc.name == "wide") {
				t.Fatalf("wide=%v", v.wide)
			}
			var allocs float64
			var states int
			if v.wide {
				allocs, states = expansionAllocs[[wideWords]uint64](v)
			} else {
				allocs, states = expansionAllocs[[1]uint64](v)
			}
			if allocs != 0 {
				t.Fatalf("expansion of %d states allocates %.1f times per sweep, want 0", states, allocs)
			}
		})
	}
}

// TestSequentialSearchAllocAmortized gates the whole sequential driver:
// verifying slot S2 (10201 states) end to end — verifier construction
// included — must cost far less than one allocation per hundred states.
// The PR-3 core allocated ~3 per state. The traced subtest runs the same
// search with the full telemetry plane attached (metrics are always on; a
// RunTrace adds the per-level spans) under the same budget: telemetry is
// level-granular, so it must not change the gate.
func TestSequentialSearchAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	ps := caseProfiles(t, "C6", "C2")
	for _, tc := range []struct {
		name   string
		traced bool
	}{
		{"plain", false},
		{"telemetry", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var states int
			allocs := testing.AllocsPerRun(2, func() {
				cfg := Config{NondetTies: true, Workers: 1}
				if tc.traced {
					tr := obs.NewTrace("")
					cfg.RunID, cfg.RunTrace = tr.RunID, tr
				}
				res, err := Slot(ps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Schedulable {
					t.Fatal("S2 must verify")
				}
				states = res.States
			})
			if budget := float64(states)/100 + 100; allocs > budget {
				t.Fatalf("sequential S2 search (%d states, traced=%v) allocates %.0f times, budget %.0f (O(1) amortized per state)",
					states, tc.traced, allocs, budget)
			}
		})
	}
}

// TestExpanderSuccessorsIntoAllocFree pins the exported seam the
// distributed nodes drive on the wide encoding: SuccessorsHashedInto with an
// owned scratch and a recycled buffer is allocation-free on three-word
// states too.
func TestExpanderSuccessorsIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	e, err := NewExpander(fleet(7, 6, 1, 2, 65), Config{NondetTies: true})
	if err != nil || e.StateWords() != wideWords {
		t.Fatalf("wide fixture: %d-word states, %v", e.StateWords(), err)
	}
	sc := e.NewScratch()
	out, app := e.SuccessorsHashedInto(e.Initial(), sc, nil)
	if app >= 0 {
		t.Fatal("initial expansion violated")
	}
	states := make([]PackedState, len(out))
	for i := range out {
		states[i] = out[i].S
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range states {
			out, _ = e.SuccessorsHashedInto(s, sc, out[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("SuccessorsHashedInto allocates %.1f times per wide sweep, want 0", allocs)
	}
}

// TestExpanderSuccessorsHashedIntoAllocFree pins the batched-hashing
// variant the mesh workers drive: hashing during the packing sweep must
// not reintroduce allocation on the steady-state expansion path.
func TestExpanderSuccessorsHashedIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	e, err := NewExpander(fleet(4, 6, 1, 2, 10), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := e.NewScratch()
	out, app := e.SuccessorsHashedInto(e.Initial(), sc, nil)
	if app >= 0 {
		t.Fatal("initial expansion violated")
	}
	states := make([]PackedState, len(out))
	for i := range out {
		states[i] = out[i].S
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range states {
			out, _ = e.SuccessorsHashedInto(s, sc, out[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("SuccessorsHashedInto allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestParallelSearchAllocAmortized gates the parallel driver the way
// TestSequentialSearchAllocAmortized gates the sequential one, on the
// paper's largest slot (S1, 1,440,712 states over 51 levels) with two lanes:
// a run allocates per lane (sets, staging, scratch — each growing by
// doubling), per level-store block, per phase of a round (one goroutine per
// lane) and per table growth, never per state. The bound is a few dozen allocations per level
// and lane; one per thousand states would already be 1,440.
func TestParallelSearchAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	if testing.Short() {
		t.Skip("full S1 state space three times")
	}
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	const lanes = 2
	var res Result
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if res, err = Slot(ps, Config{NondetTies: true, Workers: lanes}); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Schedulable || res.States != 1440712 {
		t.Fatalf("S1: %+v", res)
	}
	levels := res.Depth + 1
	if budget := float64(20 * levels * lanes); allocs > budget {
		t.Fatalf("parallel S1 search (%d states, %d levels, %d lanes) allocates %.0f times, budget %.0f", res.States, levels, lanes, allocs, budget)
	}
	t.Logf("%.0f allocations for %d states over %d levels", allocs, res.States, levels)
}

// TestLevelStoreAllocBytes gates the bytes a search allocates on the Go
// heap (TotalAlloc) against the memory its levels need: 8 B per key of its
// largest two adjacent levels — the frontier being expanded and the next
// level being filled — with a quarter for the level store's partial blocks,
// plus 2 MiB per visited table for its first growth steps, which stay on
// the heap below the 2 MiB line (every larger table is mapped off it). A
// level that grows by append, doubling and copying as it goes, allocates
// several times the level it ends at and fails the gate; the level store's
// blocks of a finished level serve the next one, so a search allocates
// each block once. The sequential cell is V5's violating search (681,400
// states). The lanes cell runs S1 on a node of two lanes, as runLanes and
// every mesh node do, and also allows the lanes' staging buffers, which are
// not levels and grow by append, five times the capacity they end with:
// append grows a large slice by 1.25×, so its steps sum to under 5× the
// last.
func TestLevelStoreAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	// gate fails the search if it allocated more than the levels of widths
	// (the last one partial for a search that stops at a violation) need
	// with the given slack.
	gate := func(t *testing.T, allocated uint64, widths []int, slack int) {
		t.Helper()
		pair := 0
		for i := 1; i < len(widths); i++ {
			pair = max(pair, widths[i-1]+widths[i])
		}
		bound := uint64(1.25*8*float64(pair)) + uint64(slack)
		t.Logf("%d bytes allocated; largest two adjacent levels %d keys; bound %d", allocated, pair, bound)
		if allocated > bound {
			t.Fatalf("search allocates %d bytes, over 1.25 × 8 B × %d keys (the largest two adjacent levels) + %d = %d",
				allocated, pair, slack, bound)
		}
	}
	var before, after runtime.MemStats
	t.Run("V5/sequential", func(t *testing.T) {
		ps := caseProfiles(t, "C1", "C5", "C4", "C3", "C6")
		tr := obs.NewTrace("")
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Slot(ps, Config{NondetTies: true, Workers: 1, RunTrace: tr})
		runtime.ReadMemStats(&after)
		if err != nil || res.States != 681400 {
			t.Fatalf("V5: %d states (%v), want 681400", res.States, err)
		}
		// The trace has every expanded level's width; the search stopped at
		// the violation with the rest of its states in the next level.
		var widths []int
		rest := res.States
		for _, l := range tr.Levels {
			widths = append(widths, l.States)
			rest -= l.States
		}
		gate(t, after.TotalAlloc-before.TotalAlloc, append(widths, rest), 2<<20)
	})
	t.Run("S1/lanes=2", func(t *testing.T) {
		const lanes = 2
		v := laneVerifier(t, caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true}, false, lanes)
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := newNode(v, lanes, successors[[1]uint64], hashKey[[1]uint64])
		defer e.Release()
		e.Absorb([][]uint64{appendKey(nil, initialState[[1]uint64](v))})
		var widths []int
		for e.Stats().Level > 0 {
			widths = append(widths, e.Stats().Level)
			for e.LevelRound(nil) {
			}
			e.Advance()
		}
		runtime.ReadMemStats(&after)
		if st := e.Stats(); st.States != 1440712 {
			t.Fatalf("S1 on two lanes: %d states, want 1440712", st.States)
		}
		staged := 0
		for i := range e.lanes {
			for _, o := range e.lanes[i].out {
				staged += 8 * cap(o)
			}
		}
		gate(t, after.TotalAlloc-before.TotalAlloc, widths, lanes*2<<20+5*staged)
	})
}
