package verify

import (
	"fmt"
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/ta"
)

// TestTAModelAgreesWithPackedVerifier is the semantic anchor of the whole
// verification layer: the faithful Fig. 5–7 timed-automata network checked
// by the generic engine must give the same schedulability verdict as the
// optimised packed verifier on a spread of synthetic application sets.
func TestTAModelAgreesWithPackedVerifier(t *testing.T) {
	cases := []struct {
		name string
		ps   []*profSpec
	}{
		{"tight-pair", []*profSpec{{0, 3, 5, 20}, {0, 3, 5, 20}}},
		{"loose-pair", []*profSpec{{8, 2, 4, 25}, {8, 2, 4, 25}}},
		{"mid-pair", []*profSpec{{3, 4, 6, 20}, {3, 4, 6, 20}}},
		{"asym-pair", []*profSpec{{2, 2, 3, 15}, {9, 4, 6, 30}}},
		{"barely", []*profSpec{{4, 2, 3, 20}, {4, 2, 3, 20}}},
		{"hopeless-triple", []*profSpec{{1, 2, 3, 15}, {1, 2, 3, 15}, {1, 2, 3, 15}}},
		// Past the old 6-app cap: the packed side runs the wide encoding.
		// T*w = 0 keeps the generic engine's interleaving explosion shallow.
		{"hopeless-seven", []*profSpec{
			{0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10},
			{0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ps := buildSpecs(tc.ps)
			_, taOK, err := CheckNetwork(ps, ta.CheckOptions{MaxStates: 5_000_000})
			if err != nil {
				t.Fatalf("TA check: %v", err)
			}
			packed, err := Slot(ps, Config{NondetTies: true})
			if err != nil {
				t.Fatalf("packed check: %v", err)
			}
			if taOK != packed.Schedulable {
				t.Fatalf("verdicts disagree: TA=%v packed=%v", taOK, packed.Schedulable)
			}
		})
	}
}

type profSpec struct{ twStar, dm, dp, r int }

func buildSpecs(specs []*profSpec) []*switching.Profile {
	out := make([]*switching.Profile, 0, len(specs))
	for i, s := range specs {
		out = append(out, prof(fmt.Sprintf("A%d", i), s.twStar, s.dm, s.dp, s.r))
	}
	return out
}

// TestTAModelPaperSlotS2 checks the real case-study pair {C6, C2} through
// the faithful network (the heavier S1 quadruple is covered by the packed
// verifier; the TA engine explores ~25× more states for the same model).
func TestTAModelPaperSlotS2(t *testing.T) {
	if testing.Short() {
		t.Skip("TA network exploration of the real pair takes ~1 s")
	}
	ps := caseProfiles(t, "C6", "C2")
	res, ok, err := CheckNetwork(ps, ta.CheckOptions{MaxStates: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TA model rejects paper slot S2 (states=%d)", res.States)
	}
}

// TestTAWitnessEndsInError: for an unschedulable set, the witness trace
// must exist and its final step must be an application's miss transition.
func TestTAWitnessEndsInError(t *testing.T) {
	ps := buildSpecs([]*profSpec{{0, 3, 5, 20}, {0, 3, 5, 20}})
	net, err := BuildNetwork(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Reachable(net.AnyLocation("App", "Error"), ta.CheckOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || len(res.Witness) == 0 {
		t.Fatal("expected a witness")
	}
	last := res.Witness[len(res.Witness)-1]
	if last.Step.Label != "miss" {
		t.Fatalf("witness final step %q, want miss (%d steps)", last.Step.Label, len(res.Witness))
	}
}

func TestBuildNetworkEmpty(t *testing.T) {
	if _, err := BuildNetwork(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}
