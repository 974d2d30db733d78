package dverify

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// traceHasLevels asserts that a run's trace holds one level span per entry
// of the result's level vector, equal to it, and that the vector sums to
// the result's States.
func traceHasLevels(t *testing.T, label string, tr *obs.Trace, res verify.Result) {
	t.Helper()
	if !checkLevels(t, label, res) {
		t.FailNow()
	}
	if len(tr.Levels) != len(res.Levels) {
		t.Fatalf("%s: %d level spans for %d levels", label, len(tr.Levels), len(res.Levels))
	}
	for k, l := range tr.Levels {
		if l.Level != k || l.States != res.Levels[k] {
			t.Fatalf("%s: span %d is level %d with %d states, the result's level %d holds %d", label, k, l.Level, l.States, k, res.Levels[k])
		}
	}
}

// TestTraceLevelsAreTheResultVector: Run writes a trace's level spans from
// Result.Levels alone, so the spans are the result's level vector and sum
// to its States — on the sequential search, on two and four local lanes
// and on a two-node mesh, for S1, for V5 and for S1 over a 100,000-state
// budget. Levels 0..Depth are the same on every engine (S1's 51 sum to
// 1,440,712, V5's 13 to 478,335, the bust's 17 to 91,461: its Depth is the
// deepest level whose prefix fits the budget); the sequential search, which
// stops inside V5's level 13, has one more — the 203,065 states it
// inserted there — and every engine's bust has one more, the part of level
// 17 it stored, which may differ between engines.
func TestTraceLevelsAreTheResultVector(t *testing.T) {
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	v5, err := plants.ProfileList("C1", "C5", "C4", "C3", "C6")
	if err != nil {
		t.Fatal(err)
	}
	mesh := Loopback(2)
	defer Close(mesh)
	engines := []struct {
		name    string
		workers int
		hook    func([]*switching.Profile, verify.Config) (verify.Result, error)
	}{
		{"Workers 1", 1, nil},
		{"Workers 2", 2, nil},
		{"Workers 4", 4, nil},
		{"Loopback(2), Workers 1", 1, Runner(mesh)},
		{"Loopback(2), Workers 2", 2, Runner(mesh)},
	}
	for _, slot := range []struct {
		name          string
		ps            []*switching.Profile
		maxStates     int
		err           error // ErrTooLarge for the bust
		depth, states int   // Depth, and the states of levels 0..Depth
		seqPartial    int   // the sequential search's entry past Depth, or 0 for none
		schedulable   bool
	}{
		{name: "S1", ps: s1, depth: 50, states: 1_440_712, schedulable: true},
		{name: "V5", ps: v5, depth: 12, states: 478_335, seqPartial: 203_065},
		{name: "S1 over a 100000-state budget", ps: s1, maxStates: 100_000, err: verify.ErrTooLarge, depth: 16, states: 91_461},
	} {
		var first verify.Result
		for i, e := range engines {
			label := fmt.Sprintf("%s, %s", slot.name, e.name)
			tr := obs.NewTrace("")
			res, err := verify.Slot(slot.ps, verify.Config{NondetTies: true, Workers: e.workers, MaxStates: slot.maxStates, RunTrace: tr, Distributed: e.hook})
			if !errors.Is(err, slot.err) || err == nil && res.Schedulable != slot.schedulable || res.Depth != slot.depth {
				t.Fatalf("%s: %+v, %v; want %v, schedulable=%v at depth %d", label, res, err, slot.err, slot.schedulable, slot.depth)
			}
			traceHasLevels(t, label, tr, res)
			through := 0
			for _, n := range res.Levels[:res.Depth+1] {
				through += n
			}
			partial := res.Levels[res.Depth+1:]
			bust := slot.err != nil
			wantPartial := bust || e.workers == 1 && e.hook == nil && slot.seqPartial > 0
			if through != slot.states || wantPartial != (len(partial) == 1) || len(partial) > 1 || !bust && wantPartial && partial[0] != slot.seqPartial {
				t.Fatalf("%s: levels 0..%d hold %d states and %v past them; want %d and, on the sequential search, %d", label, res.Depth, through, partial, slot.states, slot.seqPartial)
			}
			if bust && through+partial[0] <= slot.maxStates {
				t.Fatalf("%s: %d states past level %d, which leave levels 0..%d within the budget", label, partial[0], res.Depth, res.Depth+1)
			}
			if i == 0 {
				first = res
			}
			sameLevels(t, label, res, first)
		}
	}
}

// TestDistributedTraceLevels: on a loopback and on a TCP cluster, an
// exhaustive distributed run's level spans are its Result.Levels, which
// partition the visited states exactly — every state is counted in the
// level it was committed at, once: the coordinator sums the workers'
// cumulative fresh-commit counts (Response.FreshByLevel) per level.
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
			cfg := verify.Config{NondetTies: true, RunID: tr.RunID, RunTrace: tr, Distributed: Runner(ts)}
			res, err := verify.Slot(ps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable {
				t.Fatal("fleet must verify")
			}
			traceHasLevels(t, name, tr, res)
			if len(tr.Levels) != res.Depth+1 {
				t.Errorf("trace has %d level spans, depth %d wants %d", len(tr.Levels), res.Depth, res.Depth+1)
			}
			if tr.Levels[0].States != 1 {
				t.Errorf("level 0 records %d states, the initial state makes it 1", tr.Levels[0].States)
			}
			if tr.Backend != "mesh" || tr.Nodes != 2 {
				t.Errorf("backend recorded as %q/%d nodes, want \"mesh\"/2", tr.Backend, tr.Nodes)
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
		})
	}
}
