package dverify

import (
	"fmt"
	"testing"

	"tightcps/internal/verify"
)

// TestWorkerPoolMatrixMatchesLocal pins that Workers on a distributed
// config changes nothing: 2- and 4-node clusters asked for 0, 1 and 4 lanes
// per node (a mesh node is one search goroutine whatever the value) must
// reproduce the local search bit-identically — verdict, exhaustive counts,
// depth and minimal violator — on both encodings, with and without the
// symmetry quotient. Exhaustive counts and depth coincide with the
// sequential search; the violator follows the parallel searches'
// minimum-violating-state tie-break (the sequential search short-circuits
// at the first violator in expansion order instead), so the ground truth is
// the local parallel search, as in the main matrix.
func TestWorkerPoolMatrixMatchesLocal(t *testing.T) {
	sel := map[string]bool{
		"overload2":     true, // narrow, violating at level 1
		"narrow6":       true, // narrow, schedulable, six apps at r = 20
		"het7sym":       true, // seven apps on one word, schedulable, symmetry quotient
		"wideMixed6sym": true, // wide, schedulable, symmetry quotient
		"wideBounded6":  true, // wide via bounded-disturbance lanes at r = 33
		"overload12":    true, // wide, violating, deepest fan-out
	}
	for _, tc := range equivalenceCases {
		if !sel[tc.name] {
			continue
		}
		ps := tc.ps()
		local, err := verify.Slot(ps, verify.Config{
			NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 4,
		})
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		seq, err := verify.Slot(ps, verify.Config{
			NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%s: local sequential: %v", tc.name, err)
		}
		if local.Schedulable && (seq.States != local.States || seq.Transitions != local.Transitions || seq.Depth != local.Depth) {
			t.Fatalf("%s: local parallel (%d,%d,%d) disagrees with sequential (%d,%d,%d)", tc.name,
				local.States, local.Transitions, local.Depth, seq.States, seq.Transitions, seq.Depth)
		}
		for _, nodes := range []int{2, 4} {
			for _, workers := range []int{0, 1, 4} {
				cfg := verify.Config{
					NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md,
					Workers: workers,
				}
				dist, err := verifyOver(t, nodes, ps, cfg)
				if err != nil {
					t.Fatalf("%s: nodes=%d workers=%d: %v", tc.name, nodes, workers, err)
				}
				checkMatchesLocal(t, fmt.Sprintf("%s: nodes=%d workers=%d", tc.name, nodes, workers), dist, local)
			}
		}
	}
}
