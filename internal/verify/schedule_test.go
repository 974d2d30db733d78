package verify_test

import (
	"fmt"
	"sync"
	"testing"

	"tightcps/internal/dverify"
	"tightcps/internal/plants"
	"tightcps/internal/verify"
)

// growth is one rehash of a visited table: the keys it held and its size
// after.
type growth struct{ keys, size int }

// TestLaneTablesFollowSequentialSchedule runs S1 on every engine and holds
// each one's visited tables to the sequential table's growth schedule,
// scaled by their share of the search: a table of a P-lane node in a
// cluster of N starts at the sequential table's size over P·N and takes the
// 4× step at the same key count. Every table must grow at most as often as
// the sequential one, and after every round of growths (each table's i-th)
// the cluster's tables — a node's, times the node count — must hold no more
// slots than the sequential table held at the key count they hold together.
// A lane growing by doubling alone fails the first (five rehashes against
// three); one taking the 4× step on its own size, unscaled, fails both.
func TestLaneTablesFollowSequentialSchedule(t *testing.T) {
	ps, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	// run verifies S1 on the engine and returns each table's growths, in
	// order, and each table's share of the search.
	run := func(t *testing.T, workers, nodes int) (map[any][]growth, map[any]int) {
		t.Helper()
		var mu sync.Mutex
		grown, share := map[any][]growth{}, map[any]int{}
		stop := verify.WatchTableGrowth(func(table any, s, keys, size int) {
			mu.Lock()
			defer mu.Unlock()
			grown[table] = append(grown[table], growth{keys, size})
			share[table] = s
		})
		defer stop()
		cfg := verify.Config{NondetTies: true, Workers: workers}
		if nodes > 0 {
			ts := dverify.Loopback(nodes)
			defer dverify.Close(ts)
			cfg.Distributed = dverify.Runner(ts)
		}
		res, err := verify.Slot(ps, cfg)
		if err != nil || !res.Schedulable || res.States != 1440712 || res.Transitions != 1822844 || res.Depth != 50 {
			t.Fatalf("S1: %+v, %v; want schedulable, 1440712 states, 1822844 transitions, depth 50", res, err)
		}
		return grown, share
	}
	seqGrown, _ := run(t, 1, 0)
	if len(seqGrown) != 1 {
		t.Fatalf("the sequential search grew %d tables, want 1", len(seqGrown))
	}
	var seq []growth
	for _, g := range seqGrown {
		seq = g
	}
	if len(seq) == 0 {
		t.Fatal("the sequential table never grew")
	}
	// seqAt is the sequential table's size once it held keys keys: after
	// the last growth at that key count or below, or 0 before the first.
	seqAt := func(keys int) int {
		size := 0
		for _, g := range seq {
			if g.keys <= keys {
				size = g.size
			}
		}
		return size
	}
	for _, c := range []struct{ workers, nodes int }{{1, 0}, {2, 0}, {4, 0}, {2, 2}, {2, 4}} {
		name := fmt.Sprintf("workers=%d", c.workers)
		if c.nodes > 0 {
			name = fmt.Sprintf("loopback=%d", c.nodes)
		}
		t.Run(name, func(t *testing.T) {
			grown, share := run(t, c.workers, c.nodes)
			tables := c.workers * max(c.nodes, 1)
			if len(grown) != tables {
				t.Fatalf("%d tables grew, want all %d", len(grown), tables)
			}
			rounds := 0
			for table, g := range grown {
				if share[table] != tables {
					t.Fatalf("a table's share is %d, want %d", share[table], tables)
				}
				if len(g) > len(seq) {
					t.Errorf("a table grew %d times (%v), want at most the sequential table's %d (%v)", len(g), g, len(seq), seq)
				}
				rounds = max(rounds, len(g))
			}
			for i := range rounds {
				keys, slots := 0, 0
				for _, g := range grown {
					last := g[min(i, len(g)-1)]
					keys += last.keys
					slots += last.size
				}
				if want := seqAt(keys); slots > want {
					t.Errorf("after growth %d the tables hold %d slots for %d keys, want at most the sequential table's %d (%v)",
						i+1, slots, keys, want, seq)
				}
			}
		})
	}
}
