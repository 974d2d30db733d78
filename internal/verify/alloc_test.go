package verify

import (
	"testing"

	"tightcps/internal/obs"
)

// The allocation gates of the zero-allocation expansion core: once a
// search goroutine's scratch has grown to the verifier's maximum fanout,
// expanding a state must not allocate at all, and a whole sequential
// verification must stay at O(1) amortized allocations per visited state
// (set growth and frontier doubling are the only remaining sources).
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
		{"narrow-bounded", 4, 10, Config{NondetTies: true, MaxDisturbances: 2}},
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
// owned scratch and a recycled buffer is allocation-free on four-word
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
// doubling), per phase of a round (one goroutine per lane) and per table
// growth, never per state. The bound is a few dozen allocations per level
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
