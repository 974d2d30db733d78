package dverify

import (
	"runtime"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/verify"
)

// TestMeshAllocsFlatInNodeCount: per warm verdict, a 4-node loopback mesh
// may allocate at most 1.5× what a 2-node one does on the paper's slot S1.
// Each node recycles its inbox batches and frontier buckets across levels
// and a standing cluster reuses its workers across Inits, so only per-link
// structures scale with the node count; before the recycling fix the 4-node
// run allocated about 2× the 2-node run.
func TestMeshAllocsFlatInNodeCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	// mallocs is the fewest allocations of three warm S1 verdicts on a
	// standing cluster of n nodes (the minimum drops what the runtime's own
	// goroutines allocated meanwhile). Not testing.AllocsPerRun: it pins
	// GOMAXPROCS to 1, and nodes taking turns on one proc answer more poll
	// epochs (4 nodes ≈ 128 against ≈ 111 here), which is not the fleet
	// this gates.
	mallocs := func(n int) uint64 {
		ts := Loopback(n)
		defer Close(ts)
		run := func() {
			res, err := Verify(s1, verify.Config{NondetTies: true}, ts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable || res.States != 1440712 {
				t.Fatalf("%d-node S1: schedulable=%v states=%d", n, res.Schedulable, res.States)
			}
		}
		run() // untimed: first-run construction is not the steady state
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	two, four := mallocs(2), mallocs(4)
	t.Logf("allocations per warm S1 verdict: 2 nodes %d, 4 nodes %d", two, four)
	if float64(four) > 1.5*float64(two) {
		t.Fatalf("4-node mesh allocates %d per verdict, %.2f× the 2-node run's %d, want ≤ 1.5× — per-node allocation is growing with cluster size",
			four, float64(four)/float64(two), two)
	}
}
