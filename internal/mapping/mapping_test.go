package mapping

import (
	"reflect"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/switching"
)

func caseStudyProfiles(t *testing.T) []*switching.Profile {
	t.Helper()
	ps, err := plants.ProfileList("C1", "C2", "C3", "C4", "C5", "C6")
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestSortOrderMatchesPaper: ascending T*w with the max-Tdw− tie-break
// yields the paper's order {C1, C5, C4, C6, C2, C3}.
func TestSortOrderMatchesPaper(t *testing.T) {
	ps := caseStudyProfiles(t)
	var names []string
	for _, i := range SortOrder(ps) {
		names = append(names, ps[i].Name)
	}
	want := []string{"C1", "C5", "C4", "C6", "C2", "C3"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("order %v, want %v", names, want)
	}
}

// TestFirstFitReproducesPaperPartition is the paper's headline dimensioning
// result: first-fit with exact verification maps the six applications onto
// two TT slots, partitioned {C1,C5,C4,C3} and {C6,C2}.
func TestFirstFitReproducesPaperPartition(t *testing.T) {
	ps := caseStudyProfiles(t)
	res, err := FirstFitCached(ps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.SlotNames(ps)
	want := [][]string{{"C1", "C5", "C4", "C3"}, {"C6", "C2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partition %v, want %v", got, want)
	}
	if res.Verifications == 0 {
		t.Fatal("no verifications counted")
	}
}

// TestOptimalMatchesFirstFitOnCaseStudy: for the case study the exact
// minimum is also 2 slots — first-fit is optimal here.
func TestOptimalMatchesFirstFitOnCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies all 63 subsets")
	}
	ps := caseStudyProfiles(t)
	res, err := OptimalCached(ps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slots) != 2 {
		t.Fatalf("optimal uses %d slots, want 2 (%v)", len(res.Slots), res.SlotNames(ps))
	}
}

// stubVerify makes feasibility depend on a provided predicate over name
// sets, for fast unit tests of the mapping logic itself.
func stubVerify(ok func(names []string) bool) VerifyFunc {
	return func(ps []*switching.Profile) (bool, error) {
		var names []string
		for _, p := range ps {
			names = append(names, p.Name)
		}
		return ok(names), nil
	}
}

func mkProfile(name string, twStar, maxTdwMinus int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = maxTdwMinus
		plusT[i] = maxTdwMinus + 1
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: twStar + 50, Granularity: 1}
}

func TestFirstFitPacksGreedily(t *testing.T) {
	ps := []*switching.Profile{
		mkProfile("A", 1, 1),
		mkProfile("B", 2, 1),
		mkProfile("C", 3, 1),
	}
	// Only pairs {A,B} and singletons are feasible.
	vf := stubVerify(func(names []string) bool {
		if len(names) == 1 {
			return true
		}
		if len(names) == 2 && names[0] == "A" && names[1] == "B" {
			return true
		}
		return false
	})
	res, err := FirstFitCached(ps, vf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.SlotNames(ps)
	want := [][]string{{"A", "B"}, {"C"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partition %v, want %v", got, want)
	}
}

func TestOptimalBeatsFirstFitWhenGreedyTraps(t *testing.T) {
	// Feasible pairs: {A,B}, {C,D}, {A,C}, {B,D} — but first-fit in order
	// A,B,C,D pairs A+B then C+D: 2 slots; optimal also 2. Construct a trap:
	// feasible sets {A,B}, {A,C}, {B,C} singles... classic trap: first-fit
	// order A,B,C with feasible {A,C},{B} only as pairs: FF: A alone (B
	// can't join? {A,B} infeasible) → A; B → {A,B} no → B; C → {A,C} yes →
	// {A,C},{B}: 2 slots, optimal 2. Use 4 apps: feasible pairs {A,C},{B,D}
	// but FF tries {A,B} no, {A,C} later... order A,B,C,D: A→s1; B: {A,B}
	// no → s2; C: {A,C} yes → s1={A,C}; D: {A,C,D} no, {B,D} yes → 2 slots.
	// To actually trap FF we need triples: feasible {A,B} and {C,D} and
	// {A,C} — FF: A; B joins A; C alone; D joins C → 2; optimal 2. Greedy
	// bin covering is hard to trap with pairs; use asymmetric sizes:
	// feasible: {A,B,C} and {D}; also {A,D}. FF: A; B→{A,B}? make it
	// infeasible... then {A,B,C} can't form under FF (built incrementally).
	ps := []*switching.Profile{
		mkProfile("A", 1, 1), mkProfile("B", 2, 1),
		mkProfile("C", 3, 1), mkProfile("D", 4, 1),
	}
	feasible := map[string]bool{
		"A": true, "B": true, "C": true, "D": true,
		"A,B,C": true, "A,D": true,
	}
	vf := stubVerify(func(names []string) bool {
		key := ""
		for i, n := range names {
			if i > 0 {
				key += ","
			}
			key += n
		}
		// Normalize: the stub receives names in insertion order; sort-free
		// keys cover the combos used here.
		return feasible[key]
	})
	ff, err := FirstFitCached(ps, vf, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalCached(ps, vf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Slots) > len(ff.Slots) {
		t.Fatalf("optimal (%d) worse than first-fit (%d)", len(opt.Slots), len(ff.Slots))
	}
	if len(opt.Slots) != 2 { // {A,B,C} + {D} — wait, D pairs only with A.
		// {A,B,C} and {D}: both feasible → 2 slots.
		t.Fatalf("optimal = %v", opt.SlotNames(ps))
	}
	if len(ff.Slots) != 3 { // FF: A; B can't join {A} ({A,B} infeasible) ...
		t.Fatalf("first-fit = %v, expected the 3-slot trap", ff.SlotNames(ps))
	}
}

func TestOptimalInfeasibleSingleton(t *testing.T) {
	ps := []*switching.Profile{mkProfile("A", 1, 1)}
	vf := stubVerify(func([]string) bool { return false })
	if _, err := OptimalCached(ps, vf, nil); err == nil {
		t.Fatal("infeasible singleton accepted")
	}
}

func TestOptimalEmpty(t *testing.T) {
	res, err := OptimalCached(nil, nil, nil)
	if err != nil || len(res.Slots) != 0 {
		t.Fatalf("empty optimal: %v, %v", res, err)
	}
}

func TestFirstFitVerifierErrorPropagates(t *testing.T) {
	ps := []*switching.Profile{mkProfile("A", 1, 1), mkProfile("B", 2, 1)}
	vf := func([]*switching.Profile) (bool, error) {
		return false, errTest
	}
	if _, err := FirstFitCached(ps, vf, nil); err == nil {
		t.Fatal("verifier error swallowed")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
