package verify

import (
	"errors"
	"testing"

	"tightcps/internal/obs"
	"tightcps/internal/switching"
)

// TestBudgetExceededRunIsCounted reads the engine counters back through the
// obs registry: a run that stops at MaxStates adds the states and
// transitions it explored to the totals and bumps the budget-exceeded
// counter (and the error counter, as before); a run that fails for another
// reason still adds nothing; a distributed run adds its levels like a local
// one. Deltas, because the registry is process-wide.
func TestBudgetExceededRunIsCounted(t *testing.T) {
	counters := func() map[string]uint64 {
		out := map[string]uint64{}
		for k, v := range obs.Default.Snapshot() {
			if n, ok := v.(uint64); ok {
				out[k] = n
			}
		}
		return out
	}
	delta := func(before, after map[string]uint64, name string) uint64 {
		if _, ok := after[name]; !ok {
			t.Fatalf("%s is not registered", name)
		}
		return after[name] - before[name]
	}
	ps := caseProfiles(t, "C6", "C2")

	before := counters()
	res, err := Slot(ps, Config{NondetTies: true, Workers: 1, MaxStates: 5000})
	if !errors.Is(err, ErrTooLarge) || res.States != 5001 {
		t.Fatalf("budgeted S2: %+v, %v", res, err)
	}
	after := counters()
	for name, want := range map[string]uint64{
		"tightcps_verify_budget_exceeded_total": 1,
		"tightcps_verify_errors_total":          1,
		"tightcps_verify_runs_total":            0,
		"tightcps_verify_states_total":          uint64(res.States),
		"tightcps_verify_transitions_total":     uint64(res.Transitions),
		"tightcps_verify_levels_total":          uint64(res.Depth + 1),
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("budget-exceeded run moved %s by %d, want %d", name, got, want)
		}
	}

	before = after
	boom := errors.New("backend down")
	_, err = Slot(ps, Config{NondetTies: true, Distributed: func([]*switching.Profile, Config) (Result, error) {
		return Result{States: 77, Transitions: 99}, boom
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("failing backend: %v", err)
	}
	after = counters()
	for name, want := range map[string]uint64{
		"tightcps_verify_budget_exceeded_total": 0,
		"tightcps_verify_errors_total":          1,
		"tightcps_verify_states_total":          0,
		"tightcps_verify_transitions_total":     0,
		"tightcps_verify_levels_total":          0,
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("failed run moved %s by %d, want %d", name, got, want)
		}
	}

	// A distributed run counts like a local one: Run records it from its
	// result, levels included.
	before = after
	if _, err := Slot(ps, Config{NondetTies: true, Distributed: func([]*switching.Profile, Config) (Result, error) {
		return Result{Schedulable: true, States: 3, Transitions: 4, Depth: 2, Levels: []int{1, 1, 1}}, nil
	}}); err != nil {
		t.Fatalf("distributed hook: %v", err)
	}
	after = counters()
	for name, want := range map[string]uint64{
		"tightcps_verify_runs_total":        1,
		"tightcps_verify_states_total":      3,
		"tightcps_verify_transitions_total": 4,
		"tightcps_verify_levels_total":      3,
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("distributed run moved %s by %d, want %d", name, got, want)
		}
	}
}
