package verify

import (
	"errors"
	"testing"

	"tightcps/internal/switching"
)

// TestParallelMatchesSequential: on every combination — schedulable and
// not — the owner-partitioned parallel BFS must return the sequential
// verdict, and on schedulable sets (exhaustive search) the exact same
// state/transition/depth counts.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
	}{
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}},
		{"loosePair", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}},
		{"tight", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}},
		{"S2", caseProfiles(t, "C6", "C2")},
		{"S1prefix", caseProfiles(t, "C1", "C5", "C4")},
		{"rejected", caseProfiles(t, "C1", "C5", "C4", "C6")},
	}
	for _, tc := range cases {
		cfg := Config{NondetTies: true, Workers: 1}
		seq, err := Slot(tc.ps, cfg)
		if err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		var par [2]Result
		for wi, workers := range []int{2, 8} {
			cfg.Workers = workers
			p, err := Slot(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, workers, err)
			}
			par[wi] = p
			if p.Schedulable != seq.Schedulable {
				t.Errorf("%s: workers=%d schedulable=%v, sequential=%v",
					tc.name, workers, p.Schedulable, seq.Schedulable)
			}
			if seq.Schedulable {
				if p.States != seq.States || p.Transitions != seq.Transitions || p.Depth != seq.Depth {
					t.Errorf("%s: workers=%d counts (%d,%d,%d), sequential (%d,%d,%d)",
						tc.name, workers, p.States, p.Transitions, p.Depth,
						seq.States, seq.Transitions, seq.Depth)
				}
			}
		}
		// The parallel verdict and violator are deterministic across worker
		// counts (minimum violating packed state, independent of ordering).
		if !seq.Schedulable && par[0].Violator != par[1].Violator {
			t.Errorf("%s: violator differs across worker counts: %d vs %d",
				tc.name, par[0].Violator, par[1].Violator)
		}
	}
}

// TestParallelFullSlotS1 runs the paper's hardest verification in parallel
// and cross-checks the exhaustive counts against the sequential search.
func TestParallelFullSlotS1(t *testing.T) {
	if testing.Short() {
		t.Skip("full S1 state space twice")
	}
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	seq, err := Slot(ps, Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Slot(ps, Config{NondetTies: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Schedulable || par.States != seq.States ||
		par.Transitions != seq.Transitions || par.Depth != seq.Depth {
		t.Fatalf("parallel %+v, sequential %+v", par, seq)
	}
}

// TestParallelMaxStatesAborts: the state cap also aborts the parallel search.
func TestParallelMaxStatesAborts(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	res, err := Slot(ps, Config{NondetTies: true, MaxStates: 1000, Workers: 4})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if res.States <= 1000 {
		t.Fatalf("aborted with only %d states", res.States)
	}
}

// TestAutoWorkersMatchesSequential: Workers = 0 (GOMAXPROCS lanes) must
// reproduce the sequential search's verdict and exhaustive counts.
func TestAutoWorkersMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		apps []string
		sym  bool
	}{
		{"S2", []string{"C6", "C2"}, false},
		{"S1prefix", []string{"C1", "C5", "C4"}, false},
		{"rejected", []string{"C1", "C5", "C4", "C6"}, false},
	} {
		ps := caseProfiles(t, tc.apps...)
		seq, err := Slot(ps, Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		auto, err := Slot(ps, Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: 0})
		if err != nil {
			t.Fatalf("%s: auto: %v", tc.name, err)
		}
		if auto.Schedulable != seq.Schedulable {
			t.Errorf("%s: auto schedulable=%v, sequential=%v", tc.name, auto.Schedulable, seq.Schedulable)
		}
		if seq.Schedulable && (auto.States != seq.States || auto.Transitions != seq.Transitions || auto.Depth != seq.Depth) {
			t.Errorf("%s: auto counts (%d,%d,%d), sequential (%d,%d,%d)", tc.name,
				auto.States, auto.Transitions, auto.Depth, seq.States, seq.Transitions, seq.Depth)
		}
	}
}
