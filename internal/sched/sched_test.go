package sched

import (
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
	if a.occupant != 0 {
		t.Fatalf("not granted immediately: occupant=%d", a.occupant)
	}
	// Holds for Tdw+ = 4 samples (no competitor), then vacates.
	for k := 1; k <= 3; k++ {
		mustTick(t, a)
		if a.occupant != 0 {
			t.Fatalf("evicted early at sample %d", k)
		}
	}
	mustTick(t, a) // cT reaches 4 = Tdw+
	if a.occupant != -1 {
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
}

func TestEDFOrderAndPreemption(t *testing.T) {
	// App 0: tight deadline (T*w=3); app 1: loose (T*w=10). Simultaneous
	// disturbances: app 0 must win; app 1 preempts only after app 0's Tdw−.
	p0 := prof("A", 3, 2, 5, 40)
	p1 := prof("B", 10, 2, 5, 40)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{Policy: PreemptEager})
	mustTick(t, a, 0, 1)
	if a.occupant != 0 {
		t.Fatalf("EDF violated: occupant=%d", a.occupant)
	}
	mustTick(t, a) // cT=1 < Tdw−: non-preemptable
	if a.occupant != 0 {
		t.Fatalf("preempted inside non-preemptable window")
	}
	mustTick(t, a) // cT=2 = Tdw−: eager policy preempts, B granted
	if a.occupant != 1 {
		t.Fatalf("waiter not granted after Tdw−: occupant=%d", a.occupant)
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
	for lazy.occupant == 0 {
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
	if lazy.occupant != 1 {
		t.Fatalf("B not granted after lazy eviction")
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
	if a.occupant != 1 {
		t.Fatalf("slot not handed over in the vacate tick: occupant=%d", a.occupant)
	}
}

func TestTieBreakByMaxTdwMinus(t *testing.T) {
	// Same T*w; app 1 has the smaller max Tdw− and must win the tie.
	p0 := prof("A", 6, 5, 7, 60)
	p1 := prof("B", 6, 3, 7, 60)
	a := NewArbiter([]*switching.Profile{p0, p1}, Options{})
	mustTick(t, a, 0, 1)
	if a.occupant != 1 {
		t.Fatalf("tie-break wrong: occupant=%d, want 1 (smaller max Tdw−)", a.occupant)
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
	if err := a.Tick([]int{7}); err == nil {
		t.Fatalf("unknown app index accepted")
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
