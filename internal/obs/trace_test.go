package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestAddLevelMerge: levels arrive out of order and in fragments (the mesh
// folds per-node cumulative counts), and AddLevel must grow the span list
// densely and merge fragments of the same level.
func TestAddLevelMerge(t *testing.T) {
	tr := NewTrace("")
	tr.AddLevel(2, 5, 7)
	tr.AddLevel(0, 1, 0)
	tr.AddLevel(2, 3, 2) // second node's share of level 2
	tr.AddLevel(1, 4, 6)
	if len(tr.Levels) != 3 {
		t.Fatalf("levels = %d, want 3 dense spans", len(tr.Levels))
	}
	for i, want := range []struct{ states, trans int }{{1, 0}, {4, 6}, {8, 9}} {
		l := tr.Levels[i]
		if l.Level != i || l.States != want.states || l.Transitions != want.trans {
			t.Errorf("level %d = %+v, want states=%d transitions=%d", i, l, want.states, want.trans)
		}
	}
	if got := tr.LevelStates(); got != 13 {
		t.Errorf("LevelStates = %d, want 13", got)
	}
}

// TestTraceNilSafe: every mutator on a nil trace is a no-op — the engine
// calls them unconditionally, traced or not.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.AddLevel(0, 1, 1)
	tr.AddNode(0, 1, 1, 0, 0)
	tr.AddLink(0, 1, 2)
	tr.SetWire(1)
	tr.AddFailover(1, []int{0})
	tr.SetBackend("mesh", 2)
	tr.SetEpochs(9)
	tr.SetResult(true, 1, 1, 1)
	tr.SetSlot([]string{"C1"}, "")
	if tr.LevelStates() != 0 {
		t.Fatal("nil trace must report 0 level states")
	}
}

// TestTraceRoundTrip: a file written by WriteFile parses back with the
// spans, and the run ID survives (the file is the cross-process join key).
func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace("deadbeef00000000")
	tr.SetSlot([]string{"C1", "C5"}, "")
	tr.SetBackend("mesh", 2)
	tr.AddLevel(0, 1, 0)
	tr.AddLevel(1, 3, 4)
	tr.AddNode(0, 2, 1, 5, 6)
	tr.AddLink(0, 1, 10)
	tr.AddLink(0, 1, 2)
	tr.SetWire(12)
	tr.SetEpochs(3)
	tr.SetResult(true, 4, 4, 1)

	path := filepath.Join(t.TempDir(), "run.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := &Trace{}
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if got.RunID != "deadbeef00000000" {
		t.Errorf("run ID = %q", got.RunID)
	}
	if got.Backend != "mesh" || got.Nodes != 2 || got.Epochs != 3 {
		t.Errorf("backend round-trip = %q/%d/%d", got.Backend, got.Nodes, got.Epochs)
	}
	if got.LevelStates() != 4 || got.States != 4 || !got.Schedulable {
		t.Errorf("result round-trip: levels=%d states=%d sched=%v",
			got.LevelStates(), got.States, got.Schedulable)
	}
	if len(got.Links) != 1 || got.Links[0].States != 12 {
		t.Errorf("links round-trip = %+v", got.Links)
	}
	if got.Wire == nil || got.Wire.RoutedStates != 12 {
		t.Errorf("wire round-trip = %+v", got.Wire)
	}
	if got.ElapsedSec <= 0 || got.StatesPerSec <= 0 {
		t.Errorf("timing not stamped: elapsed=%v rate=%v", got.ElapsedSec, got.StatesPerSec)
	}
}

// TestNewRunID: IDs are 16 hex chars and distinct.
func TestNewRunID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if len(id) != 16 {
			t.Fatalf("run ID %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("run ID %q repeated", id)
		}
		seen[id] = true
	}
}
