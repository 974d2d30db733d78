// Package ta is a discrete-time timed-automata network engine — the
// model-checking substrate this reproduction uses in place of UPPAAL.
//
// A network is a set of automata with locations (normal, urgent or
// committed), edges carrying guards, updates and binary channel
// synchronisations, shared integer variables, and integer clocks that
// advance synchronously in unit steps (one sampling period). Because the
// paper's system is sampled — disturbances are observed and scheduling
// decisions taken only at sample boundaries — unit-step integer clocks give
// the exact semantics of the continuous-time model (Sec. 4 discusses
// precisely this discretisation), with no zone abstraction needed.
//
// Semantics follow UPPAAL's:
//
//   - committed locations: if any automaton is committed, only transitions
//     involving a committed automaton may fire and time may not pass;
//   - urgent locations: time may not pass while occupied;
//   - invariants: a state whose invariant fails is not admissible; delay is
//     blocked when it would violate any invariant;
//   - synchronisation: an a! edge fires together with a matching a? edge of
//     another automaton, emitter update first;
//   - clocks saturate at a per-clock ceiling (max-constant abstraction),
//     keeping the reachable state space finite.
//
// Reachable is a breadth-first search over a pointer-free state store: each
// visited state is a key of 16 bits per field (locations, then variables,
// then clocks, four fields to a uint64 word) appended to a slab of
// fixed-size blocks, which is also the BFS queue, and found again through an
// open-addressing index of hash-tagged slab indices. Successors are built in
// reused scratch states, so a check allocates per visited state only for a
// witness. The field contract follows from the key: every location, variable
// and clock of a reached state must lie in [0, 65535]; a state outside it
// ends the check with ErrValueRange instead of wrapping onto another state.
//
// The package depends on no other package of this module: it is the
// independent oracle the packed verifier in internal/verify is checked
// against.
package ta

import (
	"errors"
	"fmt"
)

// Kind classifies a location.
type Kind uint8

// Location kinds.
const (
	Normal Kind = iota
	Urgent
	Committed
)

// State is a network configuration: one location per automaton, the shared
// integer variables, and the clock values. Guards and updates receive the
// state; they must treat Locs as read-only.
type State struct {
	Locs   []int
	Vars   []int
	Clocks []int
}

// Guard is an edge guard; nil means "always enabled".
type Guard func(s *State) bool

// Update is an edge effect; nil means "no effect".
type Update func(s *State)

// SyncDir is the direction of a channel synchronisation.
type SyncDir uint8

// Synchronisation directions.
const (
	NoSync SyncDir = iota
	Emit           // a!
	Recv           // a?
)

// Edge connects two locations of one automaton.
type Edge struct {
	From, To int
	Guard    Guard
	Chan     int // channel id; meaningful when Dir != NoSync
	Dir      SyncDir
	Update   Update
	Label    string // for traces
}

// Location is a named node with a kind and an optional invariant.
type Location struct {
	Name      string
	Kind      Kind
	Invariant Guard // nil = true
}

// Automaton is one component of the network.
type Automaton struct {
	Name      string
	Locations []Location
	Edges     []Edge
	Init      int

	out [][]int // edge indices by source location (built by Network)
}

// Network is a closed system of automata over shared variables and clocks.
type Network struct {
	Automata   []*Automaton
	VarNames   []string
	ClockNames []string
	ChanNames  []string
	// ClockMax is the saturation ceiling per clock (max-constant
	// abstraction): after reaching ClockMax[c]+1 a clock no longer grows.
	// Guards must not compare clock c against constants above ClockMax[c].
	ClockMax []int
	// InitVars optionally overrides the all-zero initial variable values.
	InitVars []int
}

// Validate checks structural sanity and builds edge indices.
func (n *Network) Validate() error {
	if len(n.Automata) == 0 {
		return errors.New("ta: empty network")
	}
	for _, a := range n.Automata {
		if a.Init < 0 || a.Init >= len(a.Locations) {
			return fmt.Errorf("ta: %s: init location %d out of range", a.Name, a.Init)
		}
		a.out = make([][]int, len(a.Locations))
		for ei, e := range a.Edges {
			if e.From < 0 || e.From >= len(a.Locations) || e.To < 0 || e.To >= len(a.Locations) {
				return fmt.Errorf("ta: %s: edge %d endpoints out of range", a.Name, ei)
			}
			if e.Dir != NoSync && (e.Chan < 0 || e.Chan >= len(n.ChanNames)) {
				return fmt.Errorf("ta: %s: edge %d channel %d out of range", a.Name, ei, e.Chan)
			}
			a.out[e.From] = append(a.out[e.From], ei)
		}
	}
	if len(n.ClockMax) != len(n.ClockNames) {
		return fmt.Errorf("ta: ClockMax length %d != clocks %d", len(n.ClockMax), len(n.ClockNames))
	}
	if n.InitVars != nil && len(n.InitVars) != len(n.VarNames) {
		return fmt.Errorf("ta: InitVars length %d != vars %d", len(n.InitVars), len(n.VarNames))
	}
	return nil
}

// Initial returns the initial configuration.
func (n *Network) Initial() *State {
	s, _ := n.initial()
	return s
}

// initial is Initial as a flatState.
func (n *Network) initial() (*State, []int) {
	s, flat := n.flatState()
	for i, a := range n.Automata {
		s.Locs[i] = a.Init
	}
	copy(s.Vars, n.InitVars)
	return s, flat
}

// invariantsHold reports whether every occupied location's invariant holds.
func (n *Network) invariantsHold(s *State) bool {
	for i, a := range n.Automata {
		if inv := a.Locations[s.Locs[i]].Invariant; inv != nil && !inv(s) {
			return false
		}
	}
	return true
}

// anyCommitted reports whether some automaton occupies a committed location.
func (n *Network) anyCommitted(s *State) bool {
	for i, a := range n.Automata {
		if a.Locations[s.Locs[i]].Kind == Committed {
			return true
		}
	}
	return false
}

// anyUrgentOrCommitted reports whether time is frozen by a location kind.
func (n *Network) anyUrgentOrCommitted(s *State) bool {
	for i, a := range n.Automata {
		k := a.Locations[s.Locs[i]].Kind
		if k == Committed || k == Urgent {
			return true
		}
	}
	return false
}

// Step describes one transition for traces.
type Step struct {
	Delay   bool
	AutoA   int    // acting automaton (emitter for syncs)
	AutoB   int    // receiver for syncs, −1 otherwise
	Label   string // edge label(s)
	Elapsed int    // cumulative delay steps before this action
}

// scratch holds the successor states of one expansion, reused from state to
// state (flatState shapes, flats[k] backing pool[k]), and their Step
// descriptors when trace is set.
type scratch struct {
	trace bool
	pool  []*State
	flats [][]int
	steps []Step
}

// take returns pool slot k holding a copy of the flat state.
func (sc *scratch) take(n *Network, flat []int, k int) *State {
	if k == len(sc.pool) {
		s, f := n.flatState()
		sc.pool, sc.flats = append(sc.pool, s), append(sc.flats, f)
	}
	copy(sc.flats[k], flat)
	return sc.pool[k]
}

// successors writes the successor states of s, a flatState backed by flat,
// to sc.pool[:k] and returns k; under sc.trace, sc.steps[:k] describes them.
// The committed-location priority rule and delay blocking are applied.
func (n *Network) successors(s *State, flat []int, sc *scratch) int {
	committed := n.anyCommitted(s)
	k := 0
	sc.steps = sc.steps[:0]
	// keep admits pool slot k when the state it holds is admissible.
	keep := func(step Step) {
		if n.invariantsHold(sc.pool[k]) {
			k++
			if sc.trace {
				sc.steps = append(sc.steps, step)
			}
		}
	}

	// Internal edges.
	for ai, a := range n.Automata {
		if committed && a.Locations[s.Locs[ai]].Kind != Committed {
			continue
		}
		for _, ei := range a.out[s.Locs[ai]] {
			e := &a.Edges[ei]
			if e.Dir != NoSync {
				continue
			}
			if e.Guard != nil && !e.Guard(s) {
				continue
			}
			ns := sc.take(n, flat, k)
			ns.Locs[ai] = e.To
			if e.Update != nil {
				e.Update(ns)
			}
			keep(Step{AutoA: ai, AutoB: -1, Label: e.Label})
		}
	}

	// Channel synchronisations: emitter × receiver pairs.
	for ai, a := range n.Automata {
		for _, ei := range a.out[s.Locs[ai]] {
			e := &a.Edges[ei]
			if e.Dir != Emit {
				continue
			}
			if e.Guard != nil && !e.Guard(s) {
				continue
			}
			for bi, b := range n.Automata {
				if bi == ai {
					continue
				}
				if committed &&
					a.Locations[s.Locs[ai]].Kind != Committed &&
					b.Locations[s.Locs[bi]].Kind != Committed {
					continue
				}
				for _, fi := range b.out[s.Locs[bi]] {
					f := &b.Edges[fi]
					if f.Dir != Recv || f.Chan != e.Chan {
						continue
					}
					if f.Guard != nil && !f.Guard(s) {
						continue
					}
					ns := sc.take(n, flat, k)
					ns.Locs[ai] = e.To
					ns.Locs[bi] = f.To
					if e.Update != nil {
						e.Update(ns)
					}
					if f.Update != nil {
						f.Update(ns)
					}
					step := Step{AutoA: ai, AutoB: bi}
					if sc.trace {
						step.Label = e.Label + "!/" + f.Label + "?"
					}
					keep(step)
				}
			}
		}
	}

	// Delay step (one time unit) with clock saturation.
	if !n.anyUrgentOrCommitted(s) {
		ns := sc.take(n, flat, k)
		for c := range ns.Clocks {
			if ns.Clocks[c] <= n.ClockMax[c] {
				ns.Clocks[c]++
			}
		}
		keep(Step{Delay: true, AutoA: -1, AutoB: -1, Label: "delay"})
	}
	return k
}
