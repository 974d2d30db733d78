package switching_test

import (
	"errors"
	"math"
	"testing"

	"tightcps/internal/lti"
	"tightcps/internal/plants"
	. "tightcps/internal/switching"
)

func plantOf(a plants.App) Plant {
	return Plant{Name: a.Name, Sys: a.Plant, KT: a.KT, KE: a.KE, X0: a.X0, JStar: a.JStar, R: a.R}
}

func computeAll(t *testing.T) map[string]*Profile {
	t.Helper()
	out := map[string]*Profile{}
	for _, a := range plants.CaseStudy() {
		p, err := Compute(plantOf(a), Config{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		out[a.Name] = p
	}
	return out
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxAbsDiff returns the largest |a[i]−b[i]| (∞ when lengths differ).
func maxAbsDiff(a, b []int) int {
	if len(a) != len(b) {
		return math.MaxInt32
	}
	m := 0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestProfileC1MatchesPaperExactly pins the headline reproduction: every
// number of Table 1 row C1 (the motivational system) is reproduced exactly.
func TestProfileC1MatchesPaperExactly(t *testing.T) {
	p, err := Compute(plantOf(plants.C1()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := plants.PaperTable1["C1"]
	if p.JT != want.JT || p.JE != want.JE || p.TwStar != want.TwStar {
		t.Fatalf("scalars: JT=%d/%d JE=%d/%d Tw*=%d/%d", p.JT, want.JT, p.JE, want.JE, p.TwStar, want.TwStar)
	}
	if !intsEqual(p.TdwMinus, want.TdwMinus) {
		t.Fatalf("Tdw−: got %v want %v", p.TdwMinus, want.TdwMinus)
	}
	if !intsEqual(p.TdwPlus, want.TdwPlus) {
		t.Fatalf("Tdw+: got %v want %v", p.TdwPlus, want.TdwPlus)
	}
}

// TestProfileC6MatchesPaperExactly: Table 1 row C6 (with the documented
// Φ sign erratum corrected) also reproduces exactly.
func TestProfileC6MatchesPaperExactly(t *testing.T) {
	p, err := Compute(plantOf(plants.C6()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := plants.PaperTable1["C6"]
	if p.JT != want.JT || p.JE != want.JE || p.TwStar != want.TwStar {
		t.Fatalf("scalars: JT=%d/%d JE=%d/%d Tw*=%d/%d", p.JT, want.JT, p.JE, want.JE, p.TwStar, want.TwStar)
	}
	if !intsEqual(p.TdwMinus, want.TdwMinus) || !intsEqual(p.TdwPlus, want.TdwPlus) {
		t.Fatalf("tables: got %v/%v want %v/%v", p.TdwMinus, p.TdwPlus, want.TdwMinus, want.TdwPlus)
	}
}

// TestProfilesWithinOneSampleOfPaper: every Table 1 entry for every
// application reproduces to within one sample (the slack is due to the
// 4-significant-digit rounding of the printed plant matrices).
func TestProfilesWithinOneSampleOfPaper(t *testing.T) {
	profs := computeAll(t)
	for name, p := range profs {
		want := plants.PaperTable1[name]
		if d := p.JT - want.JT; d < -1 || d > 1 {
			t.Errorf("%s: JT=%d, paper %d", name, p.JT, want.JT)
		}
		if d := p.JE - want.JE; d < -2 || d > 2 {
			t.Errorf("%s: JE=%d, paper %d", name, p.JE, want.JE)
		}
		if p.TwStar != want.TwStar {
			t.Errorf("%s: T*w=%d, paper %d", name, p.TwStar, want.TwStar)
		}
		if d := maxAbsDiff(p.TdwMinus, want.TdwMinus); d > 1 {
			t.Errorf("%s: Tdw− deviates by %d: %v vs %v", name, d, p.TdwMinus, want.TdwMinus)
		}
		if d := maxAbsDiff(p.TdwPlus, want.TdwPlus); d > 1 {
			t.Errorf("%s: Tdw+ deviates by %d: %v vs %v", name, d, p.TdwPlus, want.TdwPlus)
		}
	}
}

// TestBestSettlingNonDecreasing checks the paper's observation that the
// minimum achievable settling time (at Tdw+) is non-decreasing in Tw.
func TestBestSettlingNonDecreasing(t *testing.T) {
	for name, p := range computeAll(t) {
		for i := 1; i < len(p.JBest); i++ {
			if p.JBest[i] < p.JBest[i-1] {
				t.Errorf("%s: JBest not monotone at Tw=%d: %v", name, i, p.JBest)
			}
		}
	}
}

// TestZeroWaitBestEqualsDedicated checks the paper's remark that for Tw=0,
// vacating at Tdw+ achieves the dedicated-slot settling time JT. A finite
// dwell can even beat the dedicated slot by a sample (the switch-back
// transient can help, as for C3), so the general invariant is ≤, with the
// paper's exact equality holding for C1 and C6.
func TestZeroWaitBestEqualsDedicated(t *testing.T) {
	for name, p := range computeAll(t) {
		if p.JBest[0] > p.JT {
			t.Errorf("%s: JBest[0]=%d worse than dedicated JT=%d", name, p.JBest[0], p.JT)
		}
		if (name == "C1" || name == "C6") && p.JBest[0] != p.JT {
			t.Errorf("%s: JBest[0]=%d, want exactly JT=%d", name, p.JBest[0], p.JT)
		}
	}
}

// TestDwellWindowInvariants: Tdw− ≤ Tdw+ everywhere, and both tables have
// the T*w+1 length Table 1 implies.
func TestDwellWindowInvariants(t *testing.T) {
	for name, p := range computeAll(t) {
		if len(p.TdwMinus) != p.TwStar+1 || len(p.TdwPlus) != p.TwStar+1 {
			t.Errorf("%s: table length %d/%d, want %d", name, len(p.TdwMinus), len(p.TdwPlus), p.TwStar+1)
		}
		for i := range p.TdwMinus {
			if p.TdwMinus[i] > p.TdwPlus[i] {
				t.Errorf("%s: Tdw−[%d]=%d > Tdw+[%d]=%d", name, i, p.TdwMinus[i], i, p.TdwPlus[i])
			}
			if p.JAtMin[i] > p.JStar {
				t.Errorf("%s: J at Tdw−[%d] is %d > J*=%d", name, i, p.JAtMin[i], p.JStar)
			}
		}
	}
}

// TestValidateWholeWindowSafe re-simulates every dwell in [Tdw−, Tdw+] for
// every Tw of every case-study application: any preemption point the
// scheduler may choose keeps J ≤ J*.
func TestValidateWholeWindowSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("re-simulation sweep is slow")
	}
	for _, a := range plants.CaseStudy() {
		pl := plantOf(a)
		p, err := Compute(pl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(pl, Config{}); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestWaitBeyondTwStarFails: at Tw = T*w+1 no dwell meets the requirement —
// the definition of T*w.
func TestWaitBeyondTwStarFails(t *testing.T) {
	for _, a := range []plants.App{plants.C1(), plants.C5()} {
		pl := plantOf(a)
		p, err := Compute(pl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= 4*a.JStar; d++ {
			j, ok := SettleAfterSwitch(pl, p.TwStar+1, d, Config{})
			if ok && j <= a.JStar {
				t.Fatalf("%s: dwell %d at Tw=T*w+1 still meets J*: J=%d", a.Name, d, j)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	p := &Profile{TwStar: 3, TdwMinus: []int{3, 4, 4, 5}, TdwPlus: []int{6, 6, 5, 5}, Granularity: 1}
	dm, dp, ok := p.Lookup(0)
	if !ok || dm != 3 || dp != 6 {
		t.Fatalf("Lookup(0) = %d,%d,%v", dm, dp, ok)
	}
	dm, dp, ok = p.Lookup(3)
	if !ok || dm != 5 || dp != 5 {
		t.Fatalf("Lookup(3) = %d,%d,%v", dm, dp, ok)
	}
	if _, _, ok := p.Lookup(4); ok {
		t.Fatalf("Lookup past T*w should fail")
	}
	if _, _, ok := p.Lookup(-1); ok {
		t.Fatalf("Lookup(-1) should fail")
	}
}

// TestGranularityIsConservative: with a coarser Tw grid, lookups round the
// wait up, so the dwell window demanded at any actual wait must still keep
// J ≤ J* (it uses the requirements of a longer wait).
func TestGranularityIsConservative(t *testing.T) {
	pl := plantOf(plants.C1())
	exact, err := Compute(pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Compute(pl, Config{TwGranularity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Granularity != 3 {
		t.Fatalf("granularity not recorded")
	}
	// Memory shrinks.
	if len(coarse.TdwMinus) >= len(exact.TdwMinus) {
		t.Fatalf("coarse table not smaller: %d vs %d", len(coarse.TdwMinus), len(exact.TdwMinus))
	}
	// Every wait covered by the coarse table still meets the requirement
	// when the coarse dwell window is applied.
	for tw := 0; tw <= coarse.TwStar; tw++ {
		dm, _, ok := coarse.Lookup(tw)
		if !ok {
			continue
		}
		j, settled := SettleAfterSwitch(pl, tw, dm, Config{})
		if !settled || j > pl.JStar {
			t.Errorf("coarse dwell %d at Tw=%d gives J=%d > J*=%d", dm, tw, j, pl.JStar)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	pl := plantOf(plants.C1())
	pl.JStar = 5 // tighter than JT=9: infeasible even with a dedicated slot
	if _, err := Compute(pl, Config{}); !errors.Is(err, ErrRequirementInfeasible) {
		t.Fatalf("want ErrRequirementInfeasible, got %v", err)
	}
	pl.JStar = 200 // looser than JE=35: no TT slot needed at all
	if _, err := Compute(pl, Config{}); !errors.Is(err, ErrRequirementTrivial) {
		t.Fatalf("want ErrRequirementTrivial, got %v", err)
	}
	pl.JStar = 0
	if _, err := Compute(pl, Config{}); err == nil {
		t.Fatalf("J*=0 accepted")
	}
}

// TestSimulatorModesMatchLTIHelpers: StepMT/StepME must agree with the
// standalone lti simulation helpers.
func TestSimulatorModesMatchLTIHelpers(t *testing.T) {
	a := plants.C1()
	pl := plantOf(a)
	// Pure MT.
	s := NewSimulator(pl)
	trT := lti.SimulateFeedback(a.Plant, a.KT, a.X0, 50)
	for k := 0; k <= 50; k++ {
		if d := math.Abs(s.Output() - trT.Y[k]); d > 1e-12 {
			t.Fatalf("MT mismatch at k=%d: %g", k, d)
		}
		s.StepMT()
	}
	// Pure ME.
	s.Reset(a.X0)
	trE := lti.SimulateDelayedFeedback(a.Plant, a.KE, a.X0, 0, 50)
	for k := 0; k <= 50; k++ {
		if d := math.Abs(s.Output() - trE.Y[k]); d > 1e-12 {
			t.Fatalf("ME mismatch at k=%d: %g", k, d)
		}
		s.StepME()
	}
}

// TestSimulateSequenceMatchesSettleAfterSwitch: the generic mode-sequence
// runner and the wait/dwell runner agree.
func TestSimulateSequenceMatchesSettleAfterSwitch(t *testing.T) {
	pl := plantOf(plants.C5())
	const horizon, tol = 4000, SettleTol // the Config{} horizon
	tw, dwell := 3, 4
	seq := make([]Mode, tw+dwell)
	for i := tw; i < tw+dwell; i++ {
		seq[i] = MT
	}
	y := SimulateSequence(pl, seq, horizon)
	j1, ok1 := lti.SettlingIndex(y, tol)
	j2, ok2 := SettleAfterSwitch(pl, tw, dwell, Config{})
	if j1 != j2 || ok1 != ok2 {
		t.Fatalf("sequence J=%d(%v) vs switch J=%d(%v)", j1, ok1, j2, ok2)
	}
}

// TestMotivationalFig2SettlingTimes reproduces the Fig. 2 headline numbers:
// JT = 0.18 s, JE = 0.68 s for both KE designs, and the 4-wait/4-dwell
// switching cases: 0.28 s with the stable pair vs 0.58 s with the unstable
// pair.
func TestMotivationalFig2SettlingTimes(t *testing.T) {
	sys := plants.Motivational()
	mk := func(kE lti.Feedback) Plant {
		return Plant{Name: "fig2", Sys: sys, KT: plants.MotivationalKT, KE: kE,
			X0: plants.MotivationalX0, JStar: 18, R: 25}
	}
	stable := mk(plants.MotivationalKEStable)
	unstable := mk(plants.MotivationalKEUnstable)

	jT, ok := SettleAfterSwitch(stable, 0, 4000, Config{})
	if !ok || jT != 9 { // 0.18 s
		t.Errorf("JT = %d samples, want 9 (0.18 s)", jT)
	}
	jEs, ok := SettleAfterSwitch(stable, 4000, 0, Config{})
	if !ok || jEs < 33 || jEs > 35 { // paper plots 0.68 s
		t.Errorf("JE(KsE) = %d samples, want ≈34 (0.68 s)", jEs)
	}
	jEu, ok := SettleAfterSwitch(unstable, 4000, 0, Config{})
	if !ok || jEu < 33 || jEu > 35 {
		t.Errorf("JE(KuE) = %d samples, want ≈34 (0.68 s)", jEu)
	}
	// 4 samples ME, 4 samples MT, then ME: stable pair settles ≈0.28 s,
	// unstable pair ≈0.58 s — the experiment motivating the CQLF condition.
	jSw, ok := SettleAfterSwitch(stable, 4, 4, Config{})
	if !ok || jSw < 13 || jSw > 15 {
		t.Errorf("switching J (stable pair) = %d samples, want ≈14 (0.28 s)", jSw)
	}
	jSwU, ok := SettleAfterSwitch(unstable, 4, 4, Config{})
	if !ok || jSwU < 27 || jSwU > 30 {
		t.Errorf("switching J (unstable pair) = %d samples, want ≈29 (0.58 s)", jSwU)
	}
	if jSw >= jSwU {
		t.Errorf("stable pair (%d) should settle faster than unstable pair (%d)", jSw, jSwU)
	}
}

func TestSurface(t *testing.T) {
	pl := plantOf(plants.C5())
	pts := Surface(pl, 5, 6, Config{})
	if len(pts) != 6*7 {
		t.Fatalf("surface size %d", len(pts))
	}
	minJ, maxJ, _ := SurfaceStats(pts)
	if minJ > maxJ || minJ <= 0 {
		t.Fatalf("stats: min=%d max=%d", minJ, maxJ)
	}
	// Dwell 0 column equals pure-ME settling.
	jE, _ := SettleAfterSwitch(pl, 4000, 0, Config{})
	for _, p := range pts {
		if p.Tdw == 0 && p.J != jE {
			t.Fatalf("dwell-0 J=%d, want JE=%d", p.J, jE)
		}
	}
}

// TestRLERoundTrip: expanding the runs of EncodeRLE gives the table back,
// with no empty run and no two neighbouring runs of one value.
func TestRLERoundTrip(t *testing.T) {
	cases := [][]int{
		{3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5},
		{7, 7, 7, 7},
		{1},
		{},
		{1, 2, 3, 4},
	}
	for _, c := range cases {
		var dec []int
		for i, r := range EncodeRLE(c).Runs {
			if r.Len < 1 || i > 0 && dec[len(dec)-1] == r.Value {
				t.Errorf("%v: run %d is %+v after %v", c, i, r, dec)
			}
			for range r.Len {
				dec = append(dec, r.Value)
			}
		}
		if !intsEqual(dec, c) {
			t.Errorf("round trip %v -> %v", c, dec)
		}
	}
	// Compression actually happens on a Table-1-like array.
	enc := EncodeRLE([]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if enc.Words() != 1 {
		t.Errorf("constant table should compress to 1 run, got %d", enc.Words())
	}
}

func TestDistinctValues(t *testing.T) {
	got := DistinctValues([]int{3, 4, 3, 5, 4})
	if !intsEqual(got, []int{3, 4, 5}) {
		t.Fatalf("DistinctValues = %v", got)
	}
}

// TestMaxTdwHelpers exercises the mapping tie-break keys.
func TestMaxTdwHelpers(t *testing.T) {
	p := &Profile{TdwMinus: []int{3, 4, 5, 4}, TdwPlus: []int{6, 6, 5, 7}}
	if p.MaxTdwMinus() != 5 {
		t.Fatalf("MaxTdwMinus = %d", p.MaxTdwMinus())
	}
	if p.MaxTdwPlus() != 7 {
		t.Fatalf("MaxTdwPlus = %d", p.MaxTdwPlus())
	}
}

// TestNewSimulatorRejectsWrongGainOrders guards the panic contract.
func TestNewSimulatorRejectsWrongGainOrders(t *testing.T) {
	a := plants.C1()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSimulator(Plant{Sys: a.Plant, KT: a.KE, KE: a.KE, X0: a.X0, JStar: 18})
}

// TestUnstableSwitchingSurfaceWorse reproduces the Fig. 3 qualitative
// result: over the same (Tw, Tdw) region the unstable pair's settling times
// are never better and substantially worse somewhere.
func TestUnstableSwitchingSurfaceWorse(t *testing.T) {
	sys := plants.Motivational()
	mk := func(kE lti.Feedback) Plant {
		return Plant{Name: "fig3", Sys: sys, KT: plants.MotivationalKT, KE: kE,
			X0: plants.MotivationalX0, JStar: 18, R: 25}
	}
	stab := Surface(mk(plants.MotivationalKEStable), 10, 8, Config{})
	unst := Surface(mk(plants.MotivationalKEUnstable), 10, 8, Config{})
	worse, better := 0, 0
	for i := range stab {
		if unst[i].J > stab[i].J {
			worse++
		}
		if unst[i].J < stab[i].J {
			better++
		}
	}
	if worse < 5*better {
		t.Errorf("unstable pair not clearly worse: worse=%d better=%d", worse, better)
	}
}
