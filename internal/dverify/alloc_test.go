package dverify

import (
	"runtime"
	"testing"
	"time"

	"tightcps/internal/obs"
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
			res, err := Runner(ts)(s1, verify.Config{NondetTies: true})
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

// TestMeshRetainedAllocPerState: what a standing 2-node loopback cluster
// keeps between jobs is its visited tables (11.6 B per S1 state at this
// size), two frontier buffers per node and the batch free lists — at most
// 24 live bytes per visited state after a warm S1 verdict, and no more after
// three further verdicts: memory that tracks the widest level, not the
// number of runs. Live bytes are the heap's plus the tables mapped off it
// (tableBytes), so a table past the 2 MiB line still counts.
func TestMeshRetainedAllocPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	const states = 1440712
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc + uint64(tableBytes())
	}
	base := live()
	ts := Loopback(2)
	defer Close(ts)
	retained := func(verdicts int) float64 {
		for range verdicts {
			res, err := Runner(ts)(s1, verify.Config{NondetTies: true})
			if err != nil || !res.Schedulable || res.States != states {
				t.Fatalf("2-node S1: %+v, %v", res, err)
			}
		}
		return float64(int64(live()-base)) / states
	}
	warm := retained(2) // one to build the steady state, one warm
	later := retained(3)
	t.Logf("standing 2-node cluster retains %.1f B per visited state after a warm S1 verdict, %.1f B three verdicts later", warm, later)
	if warm > 24 {
		t.Fatalf("standing cluster retains %.1f B per visited state after a warm verdict, want ≤ 24", warm)
	}
	if later > warm+1 {
		t.Fatalf("retention grew from %.1f to %.1f B per visited state over three verdicts", warm, later)
	}
}

// tableBytes reads tightcps_verify_table_bytes: the visited-set tables
// mapped off the Go heap, which HeapAlloc does not see.
func tableBytes() int64 {
	return obs.Default.Snapshot()["tightcps_verify_table_bytes"].(int64)
}

// TestLoopbackCloseReleasesTables: a standing Loopback(2) keeps its lanes'
// tables between jobs — S1's are past the 2 MiB line, so the job must leave
// them mapped — and hands every one back once Close has ended its workers,
// so the table-bytes gauge returns to its value before the cluster. Close
// does not wait for the worker goroutines — an earlier test's cluster may
// still be unmapping its tables — so the test waits for the gauge to reach
// zero before the cluster and to come back to it after.
func TestLoopbackCloseReleasesTables(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("tables are mapped off the heap only on Linux")
	}
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	unmapped := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); tableBytes() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d table bytes still mapped after 10 s", when, tableBytes())
			}
		}
	}
	unmapped("before the cluster")
	ts := Loopback(2)
	res, err := Runner(ts)(s1, verify.Config{NondetTies: true})
	if err != nil || !res.Schedulable || res.States != 1440712 {
		t.Fatalf("2-node S1: %+v, %v", res, err)
	}
	if tableBytes() == 0 {
		t.Fatal("the standing cluster holds no mapped table after S1, so Close cannot show one released")
	}
	Close(ts)
	unmapped("after Close")
}
