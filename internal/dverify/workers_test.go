package dverify

import (
	"fmt"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// TestWorkerPoolMatrixMatchesLocal pins that lanes per node change nothing:
// clusters of 1, 2 and 4 nodes running 1, 2 and 3 lanes each (Workers
// reaches every node) must reproduce the local search bit-identically —
// verdict, exhaustive counts, depth and minimal violator — up to states
// that fill the word, with and without the symmetry quotient, on hand-made fixtures
// and on slots drawn from the synthetic fleet generator. Exhaustive counts
// and depth coincide with the sequential search; the violator follows the
// lanes' minimum-violating-state tie-break (the sequential search
// short-circuits at the first violator in expansion order instead), so the
// ground truth is the local parallel search, as in the main matrix.
func TestWorkerPoolMatrixMatchesLocal(t *testing.T) {
	type slot struct {
		name    string
		ps      []*switching.Profile
		sym     bool
		verdict string // "" or the generated slot's pinned verdict
	}
	var slots []slot
	sel := map[string]bool{
		"overload2":  true, // narrow, violating at level 1
		"narrow6":    true, // narrow, six apps at r = 20
		"het7sym":    true, // seven apps, schedulable, symmetry quotient
		"full8r32":   true, // eight apps filling the word, violating
		"overload12": true, // the application cap, violating, deepest fan-out
	}
	for _, tc := range equivalenceCases {
		if sel[tc.name] {
			slots = append(slots, slot{name: tc.name, ps: tc.ps(), sym: tc.sym})
		}
	}
	// Generated slots of the synthetic fleet's four designs (r 24, 22, 16
	// and 18).
	arch := syntheticDesigns(t)
	for _, g := range []struct {
		pick    []int
		sym     bool
		verdict string
	}{
		{[]int{0, 1}, false, "schedulable"},
		{[]int{1, 2, 3}, false, "schedulable"},
		{[]int{0, 0, 2, 3}, true, "schedulable"},
		{[]int{2, 2, 3, 3, 3}, true, "violating"},
	} {
		var ps []*switching.Profile
		for i, a := range g.pick {
			ps = append(ps, arch[a].Clone(fmt.Sprintf("%s#%d", arch[a].Name, i)))
		}
		slots = append(slots, slot{fmt.Sprintf("synthetic%v", g.pick), ps, g.sym, g.verdict})
	}
	for _, s := range slots {
		base := verify.Config{NondetTies: true, SymmetryReduction: s.sym}
		cfg := base
		cfg.Workers = 4
		local, err := verify.Slot(s.ps, cfg)
		if verdict := map[bool]string{true: "schedulable", false: "violating"}[local.Schedulable]; err != nil || s.verdict != "" && verdict != s.verdict {
			t.Fatalf("%s: local: %s, %v; want %s", s.name, verdict, err, s.verdict)
		}
		cfg.Workers = 1
		seq, err := verify.Slot(s.ps, cfg)
		if err != nil {
			t.Fatalf("%s: local sequential: %v", s.name, err)
		}
		if local.Schedulable && (seq.States != local.States || seq.Transitions != local.Transitions || seq.Depth != local.Depth) {
			t.Fatalf("%s: local parallel (%d,%d,%d) disagrees with sequential (%d,%d,%d)", s.name,
				local.States, local.Transitions, local.Depth, seq.States, seq.Transitions, seq.Depth)
		}
		for _, nodes := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 3} {
				cfg.Workers = workers
				dist, err := verifyOver(t, nodes, s.ps, cfg)
				if err != nil {
					t.Fatalf("%s: nodes=%d workers=%d: %v", s.name, nodes, workers, err)
				}
				checkMatchesLocal(t, fmt.Sprintf("%s: nodes=%d workers=%d", s.name, nodes, workers), dist, local)
			}
		}
	}
}

// syntheticDesigns computes the profiles of the synthetic fleet generator's
// designs for a 24-application fleet (seed 1): the generated inputs of the
// engine matrices.
func syntheticDesigns(t testing.TB) []*switching.Profile {
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
			t.Fatal(err)
		}
		if p.R <= p.TwStar {
			p.ClampTwStar(p.R - 1)
		}
		arch = append(arch, p)
	}
	if len(arch) != 4 {
		t.Fatalf("the synthetic fleet has %d designs, want 4", len(arch))
	}
	return arch
}
