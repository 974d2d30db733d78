package dverify

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/verify"
)

// TestMeshAllocsFlatInNodeCount: per warm verdict, a 4-node loopback mesh
// may allocate at most 1.5× what a 2-node one does on the paper's slot S1.
// Each node recycles its inbox batches and level blocks across levels and
// a standing cluster reuses its workers' expanders and batch memory across
// Inits, so only per-link structures and each node's own per-job tables and
// level blocks scale with the node count; before the recycling fix the
// 4-node run allocated about 2× the 2-node run.
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
// keeps between jobs is its expanders, lane structs and batch free lists —
// a job's visited tables and level blocks go when it finishes — at most 2
// live bytes per visited state after a warm S1 verdict (1.1 B measured;
// 13.4 B when a worker kept its tables), and no more after three further
// verdicts: memory that tracks neither the search nor the number of runs.
// Live bytes are the heap's plus the tables mapped off it (tableBytes), so
// a table past the 2 MiB line still counts.
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
	if warm > 2 {
		t.Fatalf("standing cluster retains %.1f B per visited state after a warm verdict, want ≤ 2", warm)
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

// TestLoopbackCloseReleasesTables: a standing cluster holds no visited
// table between jobs. Each worker releases its tables when it answers the
// Finish round, so the table-bytes gauge is back at its value before the
// cluster as soon as each verdict returns, while the cluster still stands —
// on Loopback(2) and on a standing Dial session to two TCP workers — and
// stays there once Close has ended the workers. S1's tables are past the
// 2 MiB line, so a sampler of the gauge during each run must see them
// mapped. The workers of an earlier test's cluster may still be unmapping
// when this one starts, so the test first waits for the gauge to reach
// zero.
func TestLoopbackCloseReleasesTables(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("tables are mapped off the heap only on Linux")
	}
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	unmapped := func(t *testing.T, when string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); tableBytes() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d table bytes still mapped after 10 s", when, tableBytes())
			}
		}
	}
	clusters := []struct {
		name string
		mk   func() []Transport
	}{
		{"loopback", func() []Transport { return Loopback(2) }},
		{"tcp", func() []Transport {
			ts, err := Dial([]string{startWorker(t), startWorker(t)}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}},
	}
	for _, cl := range clusters {
		t.Run(cl.name, func(t *testing.T) {
			unmapped(t, "before the cluster")
			ts := cl.mk()
			closed := false
			defer func() {
				if !closed {
					Close(ts)
				}
			}()
			for run := 1; run <= 2; run++ {
				// peak samples the gauge until the verdict is in.
				var peak atomic.Int64
				stop, sampled := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(sampled)
					for {
						peak.Store(max(peak.Load(), tableBytes()))
						select {
						case <-stop:
							return
						case <-time.After(100 * time.Microsecond):
						}
					}
				}()
				res, err := Runner(ts)(s1, verify.Config{NondetTies: true})
				after := tableBytes()
				close(stop)
				<-sampled
				if err != nil || !res.Schedulable || res.States != 1440712 {
					t.Fatalf("S1 run %d: %+v, %v", run, res, err)
				}
				if peak.Load() == 0 {
					t.Fatalf("S1 run %d: no mapped table seen during the run, so its release shows nothing", run)
				}
				if after != 0 {
					t.Fatalf("S1 run %d: %d table bytes still mapped when the verdict returned (%d at the run's peak seen)", run, after, peak.Load())
				}
			}
			closed = true
			if err := Close(ts); err != nil {
				t.Fatal(err)
			}
			unmapped(t, "after Close")
		})
	}
}
