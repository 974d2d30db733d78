package sched

import (
	"slices"
	"testing"

	"tightcps/internal/switching"
)

// prof builds a synthetic profile with constant dwell windows: Tdw−=dm,
// Tdw+=dp for every Tw ∈ [0, twStar].
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func mustTick(t *testing.T, a *Arbiter, disturbed ...int) {
	t.Helper()
	if err := a.Tick(disturbed); err != nil {
		t.Fatal(err)
	}
}

func TestSingleAppImmediateGrantAndVacate(t *testing.T) {
	p := prof("A", 5, 2, 4, 30)
	a := NewArbiter([]*switching.Profile{p}, Options{})
	mustTick(t, a, 0) // disturbance observed at instant 0
	if a.State.Occupant != 0 {
		t.Fatalf("not granted immediately: occupant=%d", a.State.Occupant)
	}
	// Holds for Tdw+ = 4 samples (no competitor), then vacates.
	for k := 1; k <= 3; k++ {
		mustTick(t, a)
		if a.State.Occupant != 0 {
			t.Fatalf("evicted early at sample %d", k)
		}
	}
	mustTick(t, a) // cT reaches 4 = Tdw+
	if a.State.Occupant != -1 {
		t.Fatalf("not vacated at Tdw+")
	}
	if a.Phase(0) != Cooldown {
		t.Fatalf("phase after vacate = %v", a.Phase(0))
	}
	ev := a.Events()
	if len(ev) != 2 || ev[0].Kind != GrantedEv || ev[0].Tw != 0 || ev[1].Kind != VacatedEv || ev[1].CT != 4 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestCooldownThenSteadyAfterR(t *testing.T) {
	p := prof("A", 5, 2, 4, 10)
	a := NewArbiter([]*switching.Profile{p}, Options{})
	mustTick(t, a, 0)
	for a.Phase(0) != Cooldown {
		mustTick(t, a)
	}
	// Disturbance clock started at observation (instant 0); the app becomes
	// Steady when the instant with clock = r = 10 is processed.
	for k := a.now; k < 10; k++ {
		if a.Phase(0) == Steady {
			t.Fatalf("steady before r at instant %d", k)
		}
		mustTick(t, a)
	}
	mustTick(t, a) // process instant 10: clock reaches r
	if a.Phase(0) != Steady {
		t.Fatalf("not steady at r: %v", a.Phase(0))
	}
	// Now a new disturbance is admissible.
	mustTick(t, a, 0)
	if a.Phase(0) != Granted {
		t.Fatalf("second disturbance not served: %v", a.Phase(0))
	}
}

func TestPrematureDisturbanceRejected(t *testing.T) {
	p := prof("A", 5, 2, 4, 30)
	a := NewArbiter([]*switching.Profile{p}, Options{})
	mustTick(t, a, 0)
	if err := a.Tick([]int{0}); err == nil {
		t.Fatalf("disturbance during Granted accepted (violates r)")
	}
	b := NewArbiter([]*switching.Profile{p}, Options{})
	if err := b.Tick([]int{0, 0}); err == nil {
		t.Fatalf("two disturbances of one app at one instant accepted (violates r)")
	}
}

func TestEDFOrderAndPreemption(t *testing.T) {
	// App 0: tight deadline (T*w=3); app 1: loose (T*w=10). Simultaneous
	// disturbances: app 0 must win; app 1 preempts only after app 0's Tdw−.
	p0 := prof("A", 3, 2, 5, 40)
	p1 := prof("B", 10, 2, 5, 40)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{Policy: PreemptEager})
	mustTick(t, a, 0, 1)
	if a.State.Occupant != 0 {
		t.Fatalf("EDF violated: occupant=%d", a.State.Occupant)
	}
	mustTick(t, a) // cT=1 < Tdw−: non-preemptable
	if a.State.Occupant != 0 {
		t.Fatalf("preempted inside non-preemptable window")
	}
	mustTick(t, a) // cT=2 = Tdw−: eager policy preempts, B granted
	if a.State.Occupant != 1 {
		t.Fatalf("waiter not granted after Tdw−: occupant=%d", a.State.Occupant)
	}
	if a.Phase(0) != Cooldown {
		t.Fatalf("preempted app phase = %v", a.Phase(0))
	}
	var kinds []EventKind
	for _, e := range a.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{GrantedEv, PreemptedEv, GrantedEv}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
}

func TestDeadlineMissFlagged(t *testing.T) {
	// Occupant holds ≥ 4 samples (Tdw−=4); waiter's T*w=2 expires first.
	p0 := prof("A", 8, 4, 6, 40)
	p1 := prof("B", 2, 2, 4, 40)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{})
	mustTick(t, a, 0) // A granted
	mustTick(t, a, 1) // B arrives; A non-preemptable (cT=1)
	mustTick(t, a)    // cT=2, B wt=1
	if a.Missed() {
		t.Fatalf("missed too early")
	}
	mustTick(t, a) // cT=3 < Tdw−; B wt=2 = T*w → miss
	if !a.Missed() {
		t.Fatalf("deadline miss not detected")
	}
	if a.Phase(1) != Failed {
		t.Fatalf("phase = %v, want Failed", a.Phase(1))
	}
	last := a.Events()[len(a.Events())-1]
	if last.Kind != MissedEv || last.App != 1 {
		t.Fatalf("last event %+v", last)
	}
}

func TestLazyPreemptionDelaysEviction(t *testing.T) {
	// Occupant A (Tdw−=2, Tdw+=6); waiter B with slack: lazy policy lets A
	// run past Tdw− until B's deadline forces the switch.
	p0 := prof("A", 10, 2, 6, 60)
	p1 := prof("B", 5, 2, 4, 60)
	lazy := NewArbiter([]*switching.Profile{p0, p1}, Options{Policy: PreemptLazy})
	mustTick(t, lazy, 0)
	mustTick(t, lazy, 1) // B waits, wt=0
	// Eager would evict at cT=2; lazy keeps A until B's slack hits 0
	// (wt = T*w = 5).
	for lazy.State.Occupant == 0 {
		mustTick(t, lazy)
	}
	evictAt := 0
	for _, e := range lazy.Events() {
		if e.App == 0 && (e.Kind == PreemptedEv || e.Kind == VacatedEv) {
			evictAt = e.CT
		}
	}
	if evictAt <= 2 {
		t.Fatalf("lazy policy evicted at cT=%d, expected later than eager's 2", evictAt)
	}
	if lazy.Missed() {
		t.Fatalf("lazy policy missed B's deadline")
	}
	if lazy.State.Occupant != 1 {
		t.Fatalf("B not granted after lazy eviction")
	}
}

// TestLazyPreemptionAtZeroSlack: the occupant's Tdw+ lies past the
// waiter's deadline, so only the lazy rule can save the waiter. It must
// evict at the exact instant the waiter's slack T*w − Tw reaches 0 — not
// a sample later, when the waiter has missed, and not at Tdw+.
func TestLazyPreemptionAtZeroSlack(t *testing.T) {
	p0 := prof("A", 10, 2, 12, 60)
	p1 := prof("B", 5, 2, 4, 60)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{Policy: PreemptLazy})
	mustTick(t, a, 0) // A granted at 0
	mustTick(t, a, 1) // B waits from 1; its slack is 0 at 6
	for range 8 {
		mustTick(t, a)
	}
	want := []Event{
		{Time: 0, App: 0, Kind: GrantedEv},
		{Time: 6, App: 0, Kind: PreemptedEv, CT: 6},
		{Time: 6, App: 1, Kind: GrantedEv, Tw: 5},
	}
	if !slices.Equal(a.Events(), want) {
		t.Fatalf("events = %+v, want %+v", a.Events(), want)
	}
	if a.Missed() {
		t.Fatalf("B missed its deadline")
	}
}

// TestGrantByDeadlineNotWait: when the slot frees, the waiter with the
// smaller deadline T*w − Tw wins although it has the higher index, the
// larger max Tdw− and the smaller T*w + Tw never comes into it: A (T*w 5,
// waited 4, deadline 1) against B (T*w 8, just disturbed, deadline 8).
func TestGrantByDeadlineNotWait(t *testing.T) {
	pc := prof("C", 10, 5, 5, 60) // holds the slot for exactly 5 samples
	pb := prof("B", 8, 1, 4, 60)
	pa := prof("A", 5, 3, 4, 60)
	a := NewArbiter([]*switching.Profile{pc, pb, pa}, Options{})
	mustTick(t, a, 0) // C granted
	mustTick(t, a, 2) // A waits from 1
	for range 3 {
		mustTick(t, a)
	}
	mustTick(t, a, 1) // instant 5: C vacates, B is disturbed, A has waited 4
	last := a.Events()[len(a.Events())-1]
	if want := (Event{Time: 5, App: 2, Kind: GrantedEv, Tw: 4}); last != want {
		t.Fatalf("last event %+v, want %+v", last, want)
	}
}

// TestDecideTieChoice: two waiters tied at the smallest deadline, the
// second with the smaller max Tdw−. tie < 0 grants by that key; tie = k
// grants the k-th tied waiter in index order, whatever the key; a tie past
// the last grants nobody. Every choice reports the two ties.
func TestDecideTieChoice(t *testing.T) {
	ps := []*switching.Profile{prof("A", 6, 5, 7, 60), prof("B", 6, 3, 7, 60), prof("C", 9, 1, 7, 60)}
	for _, tc := range []struct{ tie, want int }{{-1, 1}, {0, 0}, {1, 1}, {2, -1}} {
		a := NewArbiter(ps, Options{})
		a.Advance()
		if ties, missed := a.Decide([]int{0, 1, 2}, tc.tie); ties != 2 || missed >= 0 || a.State.Occupant != tc.want {
			t.Errorf("tie %d: ties %d, missed %d, occupant %d; want 2, −1, %d", tc.tie, ties, missed, a.State.Occupant, tc.want)
		}
	}
}

// TestStepAllocFree: a model checker decides every choice of every state on
// one arbiter, so a warm Advance and Decide — a disturbance, an eviction
// and a grant among them — allocate nothing.
func TestStepAllocFree(t *testing.T) {
	ps := []*switching.Profile{prof("A", 10, 2, 6, 60), prof("B", 5, 2, 4, 60), prof("C", 5, 2, 4, 60)}
	a := NewArbiter(ps, Options{Policy: PreemptEager})
	mustTick(t, a, 0) // A granted
	mustTick(t, a, 1) // B waits
	snap := a.State
	snap.Apps = slices.Clone(a.State.Apps)
	dist := []int{2}
	allocs := testing.AllocsPerRun(100, func() {
		apps := a.State.Apps
		a.State = snap
		a.State.Apps = apps
		copy(apps, snap.Apps)
		a.Advance()
		if _, missed := a.Decide(dist, 0); missed >= 0 || a.State.Occupant != 1 {
			t.Fatalf("step: missed %d, occupant %d; want B granted", missed, a.State.Occupant)
		}
	})
	if allocs != 0 {
		t.Fatalf("Advance+Decide allocated %.1f times per step, want 0", allocs)
	}
}

func TestVacateThenImmediateGrant(t *testing.T) {
	// A vacates at Tdw+ while B waits; B must be granted in the same tick.
	p0 := prof("A", 10, 3, 3, 60) // window [3,3]: vacates at cT=3
	p1 := prof("B", 20, 2, 4, 60)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{Policy: PreemptLazy})
	mustTick(t, a, 0)
	mustTick(t, a, 1)
	mustTick(t, a)
	mustTick(t, a) // cT=3 = Tdw+ → vacate; grant B same tick
	if a.State.Occupant != 1 {
		t.Fatalf("slot not handed over in the vacate tick: occupant=%d", a.State.Occupant)
	}
}

func TestTieBreakByMaxTdwMinus(t *testing.T) {
	// Same T*w; app 1 has the smaller max Tdw− and must win the tie.
	p0 := prof("A", 6, 5, 7, 60)
	p1 := prof("B", 6, 3, 7, 60)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{})
	mustTick(t, a, 0, 1)
	if a.State.Occupant != 1 {
		t.Fatalf("tie-break wrong: occupant=%d, want 1 (smaller max Tdw−)", a.State.Occupant)
	}
}

func TestOccupancyReconstruction(t *testing.T) {
	events := []Event{
		{Time: 0, App: 2, Kind: GrantedEv},
		{Time: 3, App: 2, Kind: PreemptedEv},
		{Time: 3, App: 0, Kind: GrantedEv},
		{Time: 5, App: 0, Kind: VacatedEv},
	}
	occ := Occupancy(events, 7)
	want := []int{2, 2, 2, 0, 0, -1, -1}
	for i := range want {
		if occ[i] != want[i] {
			t.Fatalf("occupancy = %v, want %v", occ, want)
		}
	}
}

func TestUnknownAppRejected(t *testing.T) {
	a := NewArbiter([]*switching.Profile{prof("A", 5, 2, 4, 30)}, Options{})
	for _, i := range []int{7, 1, -1} { // 1 = len(apps), the first index past the set
		if err := a.Tick([]int{i}); err == nil {
			t.Fatalf("unknown app index %d accepted", i)
		}
	}
}

func TestPhaseAndKindStrings(t *testing.T) {
	for _, p := range []Phase{Steady, Waiting, Granted, Cooldown, Failed, Phase(9)} {
		if p.String() == "" {
			t.Fatalf("empty Phase string")
		}
	}
	for _, k := range []EventKind{GrantedEv, PreemptedEv, VacatedEv, MissedEv, EventKind(9)} {
		if k.String() == "" {
			t.Fatalf("empty EventKind string")
		}
	}
}

// TestGrantBeyondTwStarNeverHappens: an app whose wait already exceeded
// T*w is flagged, not granted with an out-of-range table index.
func TestGrantBeyondTwStarNeverHappens(t *testing.T) {
	p0 := prof("A", 10, 6, 8, 60) // long occupancy
	p1 := prof("B", 2, 2, 4, 60)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{})
	mustTick(t, a, 0)
	mustTick(t, a, 1)
	for k := 0; k < 10; k++ {
		mustTick(t, a)
	}
	for _, e := range a.Events() {
		if e.Kind == GrantedEv && e.App == 1 {
			t.Fatalf("B was granted after missing its deadline: %+v", e)
		}
	}
	if !a.Missed() {
		t.Fatalf("B's miss not recorded")
	}
}
