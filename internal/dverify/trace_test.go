package dverify

import (
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// TestDistributedTraceLevels: on a loopback and on a TCP cluster, an
// exhaustive distributed run's folded per-level spans must partition the
// visited states exactly — every state is counted in the level it was
// committed at, once. The coordinator reconstructs levels from the workers'
// cumulative fresh-commit counts (Response.FreshByLevel). This is the
// engine-level half of the PR's acceptance check (verifyslot -tracefile on
// S1 = this invariant at 1.44M states).
func TestDistributedTraceLevels(t *testing.T) {
	ps := fleet(4, 6, 1, 2, 10)
	tcp, err := Dial([]string{startWorker(t), startWorker(t)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range map[string][]Transport{"mesh": Loopback(2), "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			defer Close(ts)
			tr := obs.NewTrace("")
			cfg := verify.Config{NondetTies: true, RunID: tr.RunID, RunTrace: tr}
			res, err := Runner(ts)(ps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable {
				t.Fatal("fleet must verify")
			}
			if got := tr.LevelStates(); got != res.States {
				t.Errorf("level spans sum to %d states, search visited %d", got, res.States)
			}
			if tr.Backend != "mesh" || tr.Nodes != 2 {
				t.Errorf("backend recorded as %q/%d nodes, want \"mesh\"/2", tr.Backend, tr.Nodes)
			}
			if len(tr.Levels) != res.Depth+1 {
				t.Errorf("trace has %d level spans, depth %d wants %d", len(tr.Levels), res.Depth, res.Depth+1)
			}
			if tr.Levels[0].States != 1 {
				t.Errorf("level 0 records %d states, the initial state makes it 1", tr.Levels[0].States)
			}
			if len(tr.Cluster) != 2 {
				t.Fatalf("trace has %d node spans, want 2", len(tr.Cluster))
			}
			nodeSum := 0
			for _, n := range tr.Cluster {
				nodeSum += n.States
			}
			if nodeSum != res.States {
				t.Errorf("node spans own %d states, search visited %d", nodeSum, res.States)
			}
			if tr.Epochs <= 0 {
				t.Error("trace must record its poll epochs")
			}
			// Every routed state crosses its link as its one raw word: the
			// loopback links ship exactly that, TCP one version byte per
			// batch more.
			w := res.Wire
			if w.RoutedStates == 0 || w.RawBytes != 8*w.RoutedStates || w.FilteredStates != 0 {
				t.Errorf("wire: %d states routed, %d held back, %d raw bytes; want 8 B each, none held back", w.RoutedStates, w.FilteredStates, w.RawBytes)
			}
			if extra := w.WireBytes - w.RawBytes; name == "mesh" && extra != 0 || name == "tcp" && extra <= 0 {
				t.Errorf("%s wire: %d bytes shipped for %d raw", name, w.WireBytes, w.RawBytes)
			}
		})
	}
}
