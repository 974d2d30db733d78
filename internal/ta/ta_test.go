package ta

import (
	"errors"
	"testing"
)

// counterNet builds a one-automaton network with a clock that must reach
// the guard value to move Init→Done.
func counterNet(threshold, clockMax int) *Network {
	a := &Automaton{
		Name: "A",
		Locations: []Location{
			{Name: "Init"},
			{Name: "Done"},
		},
		Edges: []Edge{{
			From: 0, To: 1, Label: "go",
			Guard: func(s *State) bool { return s.Clocks[0] == threshold },
		}},
	}
	return &Network{
		Automata:   []*Automaton{a},
		ClockNames: []string{"c"},
		ClockMax:   []int{clockMax},
	}
}

func TestDelayReachesGuard(t *testing.T) {
	n := counterNet(3, 10)
	res, err := n.Reachable(n.AnyLocation("A", "Done"), CheckOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("Done unreachable")
	}
	// Witness: 3 delays then the action.
	delays := 0
	for _, e := range res.Witness {
		if e.Step.Delay {
			delays++
		}
	}
	if delays != 3 {
		t.Fatalf("witness has %d delays, want 3: %+v", delays, res.Witness)
	}
}

func TestClockSaturationBlocksLargeConstants(t *testing.T) {
	// Guard at 5 with ceiling 3: clock saturates at 4 and never equals 5.
	n := counterNet(5, 3)
	p := n.AnyLocation("A", "Done")
	res, err := n.Reachable(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("saturated clock reached a constant above its ceiling")
	}
	// The state space stays finite despite unbounded delays.
	if res.States > 10 {
		t.Fatalf("saturation did not bound states: %d", res.States)
	}
}

func TestInvariantBlocksDelay(t *testing.T) {
	// Invariant c ≤ 2 with an exit guard at c==2: time cannot pass 2, the
	// automaton must leave.
	exitTaken := false
	a := &Automaton{
		Name: "A",
		Locations: []Location{
			{Name: "Bounded", Invariant: func(s *State) bool { return s.Clocks[0] <= 2 }},
			{Name: "Out"},
		},
		Edges: []Edge{{
			From: 0, To: 1, Label: "exit",
			Guard:  func(s *State) bool { return s.Clocks[0] == 2 },
			Update: func(s *State) { exitTaken = true },
		}},
	}
	n := &Network{Automata: []*Automaton{a}, ClockNames: []string{"c"}, ClockMax: []int{5}}
	p := n.AnyLocation("A", "Out")
	res, err := n.Reachable(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || !exitTaken {
		t.Fatal("exit not taken")
	}
	// No state with clock 3 in location Bounded may exist: check by asking
	// for it as a property.
	bad := func(s *State) bool { return s.Locs[0] == 0 && s.Clocks[0] >= 3 }
	res, err = n.Reachable(bad, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("delay violated the invariant")
	}
}

func TestSynchronisationPairs(t *testing.T) {
	// Emitter sets a var; receiver doubles it. Order must be emit-then-recv.
	em := &Automaton{
		Name:      "E",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges: []Edge{{From: 0, To: 1, Chan: 0, Dir: Emit, Label: "a",
			Update: func(s *State) { s.Vars[0] = 21 }}},
	}
	rc := &Automaton{
		Name:      "R",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges: []Edge{{From: 0, To: 1, Chan: 0, Dir: Recv, Label: "a",
			Update: func(s *State) { s.Vars[0] *= 2 }}},
	}
	n := &Network{Automata: []*Automaton{em, rc}, VarNames: []string{"v"},
		ChanNames: []string{"a"}, ClockNames: nil, ClockMax: nil}
	p := func(s *State) bool { return s.Locs[0] == 1 && s.Locs[1] == 1 }
	res, err := n.Reachable(p, CheckOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("sync did not fire")
	}
	final := res.Witness[len(res.Witness)-1].State
	if final.Vars[0] != 42 {
		t.Fatalf("v = %d, want 42 (emitter update must run first)", final.Vars[0])
	}
}

func TestEmitterAloneCannotMove(t *testing.T) {
	// An a! edge with no matching a? anywhere must not fire.
	em := &Automaton{
		Name:      "E",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges:     []Edge{{From: 0, To: 1, Chan: 0, Dir: Emit, Label: "a"}},
	}
	n := &Network{Automata: []*Automaton{em}, ChanNames: []string{"a"}}
	p := n.AnyLocation("E", "T")
	res, err := n.Reachable(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("unpaired emit fired")
	}
}

func TestCommittedPriority(t *testing.T) {
	// Automaton A enters a committed location; B has a competing internal
	// edge. From the committed state, only A's continuation may fire, and no
	// delay may occur.
	a := &Automaton{
		Name: "A",
		Locations: []Location{
			{Name: "S"},
			{Name: "Mid", Kind: Committed},
			{Name: "T"},
		},
		Edges: []Edge{
			{From: 0, To: 1, Label: "enter"},
			{From: 1, To: 2, Label: "leave", Update: func(s *State) { s.Vars[1] = 1 }},
		},
	}
	b := &Automaton{
		Name:      "B",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges: []Edge{{From: 0, To: 1, Label: "race",
			// Records whether A was mid-transaction when B moved.
			Update: func(s *State) {
				if s.Locs[0] == 1 {
					s.Vars[0] = 1
				}
			}}},
	}
	n := &Network{Automata: []*Automaton{a, b},
		VarNames: []string{"interleaved", "done"}}
	bad := func(s *State) bool { return s.Vars[0] == 1 }
	res, err := n.Reachable(bad, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("B interleaved with A's committed transaction")
	}
}

func TestUrgentBlocksDelayOnly(t *testing.T) {
	// In an urgent location, time must not pass, but other automata may act.
	a := &Automaton{
		Name:      "A",
		Locations: []Location{{Name: "U", Kind: Urgent}, {Name: "T"}},
		Edges:     []Edge{{From: 0, To: 1, Label: "go", Guard: func(s *State) bool { return s.Vars[0] == 1 }}},
	}
	b := &Automaton{
		Name:      "B",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges:     []Edge{{From: 0, To: 1, Label: "set", Update: func(s *State) { s.Vars[0] = 1 }}},
	}
	n := &Network{Automata: []*Automaton{a, b}, VarNames: []string{"flag"},
		ClockNames: []string{"c"}, ClockMax: []int{3}}
	// Clock must never advance while A is urgent (A only leaves via B's flag).
	bad := func(s *State) bool { return s.Clocks[0] > 0 && s.Locs[0] == 0 }
	res, err := n.Reachable(bad, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("delay occurred in an urgent location")
	}
	p := n.AnyLocation("A", "T")
	res, err = n.Reachable(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("B's action could not unblock A")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	n := &Network{}
	if err := n.Validate(); err == nil {
		t.Fatal("empty network validated")
	}
	bad := &Network{Automata: []*Automaton{{
		Name:      "A",
		Locations: []Location{{Name: "S"}},
		Init:      2,
	}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad init accepted")
	}
	badEdge := &Network{Automata: []*Automaton{{
		Name:      "A",
		Locations: []Location{{Name: "S"}},
		Edges:     []Edge{{From: 0, To: 5}},
	}}}
	if err := badEdge.Validate(); err == nil {
		t.Fatal("bad edge accepted")
	}
	badChan := &Network{Automata: []*Automaton{{
		Name:      "A",
		Locations: []Location{{Name: "S"}},
		Edges:     []Edge{{From: 0, To: 0, Chan: 3, Dir: Emit}},
	}}}
	if err := badChan.Validate(); err == nil {
		t.Fatal("bad channel accepted")
	}
}

func TestMaxStatesLimit(t *testing.T) {
	n := counterNet(5, 100)
	p := n.AnyLocation("A", "Done")
	_, err := n.Reachable(p, CheckOptions{MaxStates: 2})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
}

func TestInitVars(t *testing.T) {
	a := &Automaton{
		Name:      "A",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges:     []Edge{{From: 0, To: 1, Guard: func(s *State) bool { return s.Vars[0] == 7 }}},
	}
	n := &Network{Automata: []*Automaton{a}, VarNames: []string{"v"}, InitVars: []int{7}}
	p := n.AnyLocation("A", "T")
	res, err := n.Reachable(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("InitVars not applied")
	}
}

// TestAnyLocationUnknownNames: a property naming no automaton, or no
// location of one, holds in no state.
func TestAnyLocationUnknownNames(t *testing.T) {
	n := counterNet(1, 2)
	for _, p := range []Property{n.AnyLocation("Nope", "Done"), n.AnyLocation("A", "Nope")} {
		res, err := n.Reachable(p, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable {
			t.Fatal("a property over unknown names held")
		}
	}
}

// TestValueRangeRefused: the visited set stores 16 bits per field, so a
// state holding a field outside [0, 65535] ends the check with
// ErrValueRange rather than a key that wraps onto another state (65,536
// onto 0, −1 onto 65,535), which would report v == 65537 unreachable.
func TestValueRangeRefused(t *testing.T) {
	counter := &Automaton{
		Name:      "A",
		Locations: []Location{{Name: "S"}},
		Edges: []Edge{{From: 0, To: 0, Label: "inc",
			Guard:  func(s *State) bool { return s.Vars[0] < 70_000 },
			Update: func(s *State) { s.Vars[0]++ }}},
	}
	negative := &Automaton{
		Name:      "A",
		Locations: []Location{{Name: "S"}, {Name: "T"}},
		Edges: []Edge{{From: 0, To: 1, Label: "dec",
			Update: func(s *State) { s.Vars[0] = -1 }}},
	}
	for _, tc := range []struct {
		name string
		a    *Automaton
		p    Property
	}{
		{"past 65535", counter, func(s *State) bool { return s.Vars[0] == 65_537 }},
		{"negative", negative, func(s *State) bool { return s.Vars[0] == -2 }},
	} {
		n := &Network{Automata: []*Automaton{tc.a}, VarNames: []string{"v"}}
		res, err := n.Reachable(tc.p, CheckOptions{})
		if !errors.Is(err, ErrValueRange) {
			t.Fatalf("%s: want ErrValueRange, got %v (%+v)", tc.name, err, res)
		}
	}
}
