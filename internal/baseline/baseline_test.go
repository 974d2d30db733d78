package baseline

import (
	"reflect"
	"testing"

	"tightcps/internal/plants"
)

// paperOrder lists C1..C6 indices (in name order C1,C2,...,C6) sorted the
// paper's way: ascending T*w, ties by smaller max Tdw−.
var paperOrder = []int{0, 4, 3, 5, 1, 2} // C1, C5, C4, C6, C2, C3

func calTimings(t *testing.T) []AppTiming {
	t.Helper()
	m, err := plants.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	rs := map[string]int{}
	for n, p := range m {
		rs[n] = p.R
	}
	apps, err := PaperCalibratedTimings(rs)
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

// TestPaperBaselinePartition reproduces the paper's reported [9] result:
// four slots partitioned {C1,C5}, {C4,C3}, {C6}, {C2}.
func TestPaperBaselinePartition(t *testing.T) {
	apps := calTimings(t)
	an := Analysis{Strategy: NonPreemptiveDM}
	got := SlotNames(apps, an.FirstFitOrdered(apps, paperOrder))
	want := [][]string{{"C1", "C5"}, {"C4", "C3"}, {"C6"}, {"C2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partition %v, want %v", got, want)
	}
}

// TestDefaultReconstructionAtLeastThreeSlots: even the least conservative
// defensible reading of [9] needs ≥3 slots where the proposed strategy
// needs 2 — the paper's headline saving holds under either reading.
func TestDefaultReconstructionAtLeastThreeSlots(t *testing.T) {
	m, err := plants.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	var apps []AppTiming
	for _, n := range []string{"C1", "C2", "C3", "C4", "C5", "C6"} {
		apps = append(apps, FromProfile(m[n]))
	}
	an := Analysis{Strategy: NonPreemptiveDM}
	slots := an.FirstFitOrdered(apps, paperOrder)
	if len(slots) < 3 {
		t.Fatalf("default baseline used %d slots; even the loosest reading needs ≥3", len(slots))
	}
}

func TestSchedulableSingleAndEmpty(t *testing.T) {
	an := Analysis{}
	if !an.Schedulable(nil) {
		t.Fatal("empty set unschedulable")
	}
	if !an.Schedulable([]AppTiming{{Name: "A", C: 100, D: 1, R: 200}}) {
		t.Fatal("single app unschedulable (it never waits)")
	}
}

func TestSchedulablePairRules(t *testing.T) {
	// Higher-priority app (smaller D) is blocked by the lower's tenure;
	// lower-priority app waits out the higher's tenure.
	cases := []struct {
		name string
		a, b AppTiming
		want bool
	}{
		{"both fit", AppTiming{Name: "A", C: 5, D: 10, R: 50}, AppTiming{Name: "B", C: 8, D: 20, R: 50}, true},
		{"hp blocked too long", AppTiming{Name: "A", C: 5, D: 7, R: 50}, AppTiming{Name: "B", C: 8, D: 20, R: 50}, false},
		{"lp starved", AppTiming{Name: "A", C: 15, D: 10, R: 50}, AppTiming{Name: "B", C: 2, D: 12, R: 50}, false},
	}
	an := Analysis{}
	for _, tc := range cases {
		if got := an.Schedulable([]AppTiming{tc.a, tc.b}); got != tc.want {
			t.Errorf("%s: Schedulable=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestResponseTimeIterationCountsRearrivals(t *testing.T) {
	// Higher-priority app re-arrives within the lower's wait window: the
	// iteration must count two hits. hp: C=6, R=10. lp: C=1, D=12.
	// w = 6 → (1+0)*6; but w=6 < 10, one hit... make hp tenure 8, R=10,
	// lp D=17: w starts 8, iter: 1+8/10=1 → 8; with blocking 0 stays 8 ≤ 17.
	// Use hp C=8 R=10 and lp D=17 with an extra mid app to push w past 10.
	hp := AppTiming{Name: "H", C: 8, D: 5, R: 10}
	mid := AppTiming{Name: "M", C: 4, D: 10, R: 100}
	lp := AppTiming{Name: "L", C: 1, D: 17, R: 100}
	an := Analysis{}
	// lp's wait: C_H + C_M = 12 > R_H = 10 → H hits again: 8+8+4 = 20 > 17.
	if an.Schedulable([]AppTiming{hp, mid, lp}) {
		t.Fatal("re-arrival interference not counted")
	}
	// With R_H large, one hit each: 12 ≤ 17 → schedulable... but H itself:
	// blocked by max(C_M, C_L) = 4 ≤ 5 ✓; M: block 1 + C_H = 9 ≤ 10 ✓.
	hp.R = 100
	if !an.Schedulable([]AppTiming{hp, mid, lp}) {
		t.Fatal("single-hit case rejected")
	}
}

func TestDelayedRequestStrategy(t *testing.T) {
	// Strategy 2 removes lower-priority blocking from the higher-priority
	// app at the cost of delaying the lower one.
	hp := AppTiming{Name: "H", C: 5, D: 6, R: 50}
	lp := AppTiming{Name: "L", C: 8, D: 20, R: 50}
	s1 := Analysis{Strategy: NonPreemptiveDM}
	s2 := Analysis{Strategy: DelayedRequest}
	// Under strategy 1, H is blocked 8 > 6: unschedulable.
	if s1.Schedulable([]AppTiming{hp, lp}) {
		t.Fatal("strategy 1 should reject")
	}
	// Under strategy 2, H sees no blocking (L delays its requests); L pays
	// the delay: wait = C_H + delay C_H = 10 ≤ 20.
	if !s2.Schedulable([]AppTiming{hp, lp}) {
		t.Fatal("strategy 2 should accept")
	}
	// But a tight lower-priority deadline makes strategy 2 fail instead.
	lp.D = 9
	if s2.Schedulable([]AppTiming{hp, lp}) {
		t.Fatal("strategy 2 must charge the delay to the delayed app")
	}
}

func TestFromProfile(t *testing.T) {
	m, err := plants.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	at := FromProfile(m["C1"])
	if at.C != m["C1"].JT || at.D != m["C1"].TwStar || at.R != m["C1"].R {
		t.Fatalf("FromProfile = %+v", at)
	}
}

func TestPaperCalibratedTimingsMissingR(t *testing.T) {
	if _, err := PaperCalibratedTimings(map[string]int{"C1": 25}); err == nil {
		t.Fatal("missing inter-arrival times accepted")
	}
}

func TestFirstFitDMOrderDiffersFromPaperOrder(t *testing.T) {
	// Sanity: first-fit in deadline-monotonic order uses no more slots than
	// one per application.
	apps := calTimings(t)
	slots := Analysis{}.FirstFitOrdered(apps, priorityOrder(apps))
	if len(slots) == 0 || len(slots) > len(apps) {
		t.Fatalf("slots = %v", slots)
	}
	// Every app appears exactly once.
	seen := map[int]bool{}
	for _, s := range slots {
		for _, i := range s {
			if seen[i] {
				t.Fatalf("app %d placed twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(apps) {
		t.Fatalf("placed %d of %d apps", len(seen), len(apps))
	}
}
