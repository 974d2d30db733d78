package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/ta"
)

// TestTAModelAgreesWithPackedVerifier is the semantic anchor of the whole
// verification layer: the faithful Fig. 5–7 timed-automata network checked
// by the generic engine must give the same schedulability verdict as the
// optimised packed verifier on a spread of synthetic application sets.
func TestTAModelAgreesWithPackedVerifier(t *testing.T) {
	// states and depth pin the TA exploration itself, so a change to the
	// engine's store or successor order cannot hide behind an agreeing
	// verdict.
	cases := []struct {
		name          string
		ps            []*profSpec
		states, depth int
	}{
		{"tight-pair", []*profSpec{{0, 3, 5, 20}, {0, 3, 5, 20}}, 13, 2},
		{"loose-pair", []*profSpec{{8, 2, 4, 25}, {8, 2, 4, 25}}, 19_957, 349},
		{"mid-pair", []*profSpec{{3, 4, 6, 20}, {3, 4, 6, 20}}, 647, 27},
		{"asym-pair", []*profSpec{{2, 2, 3, 15}, {9, 4, 6, 30}}, 650, 27},
		{"barely", []*profSpec{{4, 2, 3, 20}, {4, 2, 3, 20}}, 14_577, 289},
		{"hopeless-triple", []*profSpec{{1, 2, 3, 15}, {1, 2, 3, 15}, {1, 2, 3, 15}}, 1_761, 19},
		// Past the paper's 6-app cap: 7·6 + 8 = 50 bits at r = 10. T*w = 0
		// keeps the generic engine's interleaving explosion shallow.
		{"hopeless-seven", []*profSpec{
			{0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10},
			{0, 2, 3, 10}, {0, 2, 3, 10}, {0, 2, 3, 10}}, 103, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ps := buildSpecs(tc.ps)
			res, taOK, err := CheckNetwork(ps, ta.CheckOptions{MaxStates: 5_000_000})
			if err != nil {
				t.Fatalf("TA check: %v", err)
			}
			if res.States != tc.states || res.Depth != tc.depth {
				t.Fatalf("TA explored %d states to depth %d, want %d and %d", res.States, res.Depth, tc.states, tc.depth)
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
		t.Skip("TA network exploration of the real pair takes ≈ 0.15 s")
	}
	ps := caseProfiles(t, "C6", "C2")
	res, ok, err := CheckNetwork(ps, ta.CheckOptions{MaxStates: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TA model rejects paper slot S2 (states=%d)", res.States)
	}
	if res.States != 247_981 || res.Depth != 1_251 {
		t.Fatalf("TA explored %d states to depth %d, want 247981 and 1251", res.States, res.Depth)
	}
}

// TestTAWitnessEndsInError: for an unschedulable set, the witness trace
// must exist and its final step must be an application's miss transition.
// The whole label sequence is pinned: the first fresh Error state in BFS
// order, reached by a request, one sample and the miss.
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
	if got, want := witnessLabels(res.Witness), []string{"reqTT!/reqTT?", "delay", "miss"}; !slices.Equal(got, want) {
		t.Fatalf("witness %q, want %q", got, want)
	}
}

func witnessLabels(w []ta.TraceEntry) []string {
	out := make([]string, len(w))
	for i, e := range w {
		out[i] = e.Step.Label
	}
	return out
}

// TestTAZeroWaitMiss pins an open disagreement between the two models at
// T*w = 0. An application's miss edge (time > T*w) and the scheduler's tick
// (x == 1) are enabled in the same state one sample after the request, and
// the network's interleaving lets the miss fire first; the packed kernel
// grants at wait 0. tight-pair, hopeless-seven and TestTAWitnessEndsInError
// reach Error through this same race, so their agreement says nothing about
// T*w = 0, and FuzzTAAgreesWithPacked draws T*w from 1 up.
func TestTAZeroWaitMiss(t *testing.T) {
	ps := taFuzzProfiles([]taFuzzSpec{
		{TwStar: 0, R: 14, TdwMinus: []int{3}, TdwPlus: []int{3}},
		{TwStar: 4, R: 11, TdwMinus: []int{1, 1, 1, 1, 2}, TdwPlus: []int{1, 2, 1, 3, 3}},
	})
	net, err := BuildNetwork(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Reachable(net.AnyLocation("App", "Error"), ta.CheckOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := witnessLabels(res.Witness), []string{"reqTT!/reqTT?", "delay", "miss"}; !res.Reachable || !slices.Equal(got, want) {
		t.Fatalf("TA reachable=%v witness %q, want %q", res.Reachable, got, want)
	}
	packed, err := Slot(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !packed.Schedulable || packed.States != 180 {
		t.Fatalf("packed schedulable=%v after %d states, want true after 180", packed.Schedulable, packed.States)
	}
}

// taFuzzSpec is one generated application of FuzzTAAgreesWithPacked, in the
// form a failing input prints as a Go literal.
type taFuzzSpec struct {
	TwStar, R         int
	TdwMinus, TdwPlus []int
}

// taFuzzSet generates the application set of one FuzzTAAgreesWithPacked
// seed: 2 applications, or 3 for one seed in four, each with T*w 1–4,
// r = T*w + 1 … T*w + 14, and per wait row Tdw− 1–3 and Tdw+ = Tdw− + 0–2.
func taFuzzSet(seed int64) []taFuzzSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]taFuzzSpec, 2)
	if rng.Intn(4) == 0 {
		specs = append(specs, taFuzzSpec{})
	}
	for i := range specs {
		tw := 1 + rng.Intn(4)
		sp := taFuzzSpec{TwStar: tw, R: tw + 1 + rng.Intn(14)}
		for range tw + 1 {
			dm := 1 + rng.Intn(3)
			sp.TdwMinus = append(sp.TdwMinus, dm)
			sp.TdwPlus = append(sp.TdwPlus, dm+rng.Intn(3))
		}
		specs[i] = sp
	}
	return specs
}

// taFuzzProfiles builds the profiles of a taFuzzSet.
func taFuzzProfiles(specs []taFuzzSpec) []*switching.Profile {
	ps := make([]*switching.Profile, len(specs))
	for i, sp := range specs {
		ps[i] = prof(fmt.Sprintf("G%d", i), sp.TwStar, 0, 0, sp.R)
		ps[i].TdwMinus, ps[i].TdwPlus = sp.TdwMinus, sp.TdwPlus
	}
	return ps
}

// TestTATieOrderMiss pins the other disagreement: a slot the network
// accepts and Slot(NondetTies) refutes. G0 and G2 request at sample 0 and G2
// is granted; G1 requests at sample 1. At sample 2 the slot frees and G0 and
// G1 wait with equal deadlines. The network's Sort keeps equal deadlines in
// arrival order, so it grants G0, and every run meets its deadlines.
// NondetTies also tries G1 first, and then G0 misses. The deterministic tie
// rule grants G0 here and accepts. Ties between waiters of different arrival
// times need a third application: with two, one of them holds the slot.
func TestTATieOrderMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("the TA network explores 397,407 states (≈ 0.3 s)")
	}
	ps := taFuzzProfiles([]taFuzzSpec{
		{TwStar: 3, R: 6, TdwMinus: []int{1, 1, 1, 1}, TdwPlus: []int{1, 1, 1, 2}},
		{TwStar: 2, R: 5, TdwMinus: []int{1, 2, 1}, TdwPlus: []int{3, 3, 1}},
		{TwStar: 2, R: 6, TdwMinus: []int{2, 2, 2}, TdwPlus: []int{2, 2, 3}},
	})
	res, taOK, err := CheckNetwork(ps, ta.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !taOK || res.States != 397_407 {
		t.Fatalf("TA schedulable=%v after %d states, want true after 397407", taOK, res.States)
	}
	nondet, err := Slot(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := Counterexample(ps, Config{NondetTies: true}, nondet)
	if err != nil || nondet.Violator != 0 || fmt.Sprint(schedule) != "[[0 2] [1] []]" {
		t.Fatalf("NondetTies: schedulable=%v violator %d schedule %v (%v), want a miss of G0 after [[0 2] [1] []]",
			nondet.Schedulable, nondet.Violator, schedule, err)
	}
	if det, err := Slot(ps, Config{}); err != nil || !det.Schedulable {
		t.Fatalf("deterministic ties: schedulable=%v (%v), want true", det.Schedulable, err)
	}
}

// FuzzTAAgreesWithPacked holds the packed verifier to the timed-automata
// oracle (internal/ta, which shares no code with it) on generated slots: the
// fuzz input picks a seed of taFuzzSet, and CheckNetwork and
// Slot(NondetTies) must give the same verdict. Two differences between the
// models are known and pinned: T*w = 0 (TestTAZeroWaitMiss), kept out of
// the generator, and the order of equal deadlines (TestTATieOrderMiss), so
// a set of three applications the network accepts may be refuted by
// NondetTies, which tries every order. Seeds 0–24 but 8 (2 M TA states)
// are the corpus.
func FuzzTAAgreesWithPacked(f *testing.F) {
	for seed := range int64(25) {
		if seed != 8 {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		specs := taFuzzSet(seed)
		ps := taFuzzProfiles(specs)
		res, taOK, err := CheckNetwork(ps, ta.CheckOptions{MaxStates: 5_000_000})
		if err != nil {
			t.Fatalf("TA check of %#v: %v", specs, err)
		}
		packed, err := Slot(ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("packed check of %#v: %v", specs, err)
		}
		if taOK != packed.Schedulable && (!taOK || len(specs) < 3) {
			t.Fatalf("verdicts disagree on %#v: TA=%v after %d states, packed=%v after %d",
				specs, taOK, res.States, packed.Schedulable, packed.States)
		}
	})
}

func TestBuildNetworkEmpty(t *testing.T) {
	if _, err := BuildNetwork(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}
