package verify

import (
	"testing"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// TestRefuteAgreesWithVerifier: every replay-refuted set must be
// unschedulable under the exact checker (soundness), and no schedulable
// set may be refuted.
func TestRefuteAgreesWithVerifier(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
	}{
		{"overloadPair", fleet(2, 0, 3, 5, 20)},
		{"loosePair", fleet(2, 8, 2, 4, 40)},
		{"fleet7ok", fleet(7, 6, 1, 2, 10)},
		{"fleet8over", fleet(8, 6, 1, 2, 10)},
		{"fleet12over", fleet(12, 3, 2, 3, 4)}, // 12·4+8 = 56 bits: the cap fits one word at r ≤ 4
	}
	for _, tc := range cases {
		refuted := Refute(tc.ps, sched.PreemptEager)
		res, err := Slot(tc.ps, Config{NondetTies: true, SymmetryReduction: len(tc.ps) > 6})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if refuted && res.Schedulable {
			t.Errorf("%s: replay refuted a schedulable set (unsound)", tc.name)
		}
		if !refuted && !res.Schedulable {
			t.Logf("%s: unschedulable but not refuted by replay (expected: replay is incomplete)", tc.name)
		}
	}
	// The saturation replay must actually catch the canonical overload —
	// one instance past a fleet's round-robin capacity.
	if !Refute(fleet(12, 3, 2, 3, 4), sched.PreemptEager) {
		t.Error("replay missed the saturated-fleet overload")
	}
}

// TestRefuteAllocs pins what one Refute call allocates: the disturbed set
// and the started mask are made once and serve every tick and stagger, so
// what remains is the arbiters, one per stagger tried, and their event
// logs. A fresh set per disturbing tick and a fresh
// mask per stagger made these 159 and 170.
func TestRefuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	for _, c := range []struct {
		names []string
		want  float64
	}{
		{[]string{"C1", "C5", "C4", "C6"}, 28}, // refuted
		{[]string{"C1", "C5", "C4", "C3"}, 34}, // not refuted: all four staggers
	} {
		ps := caseProfiles(t, c.names...)
		if got := testing.AllocsPerRun(20, func() { Refute(ps, sched.PreemptEager) }); got != c.want {
			t.Errorf("Refute(%v) allocates %v times per call, want %v", c.names, got, c.want)
		}
	}
}
