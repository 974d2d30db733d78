// Package sched implements the paper's TT-slot arbiter (Sec. 4, Fig. 7):
// an EDF-like scheduler in which the deadline of a waiting application is
// D = T*w − Tw, an occupant is non-preemptable until Tdw−(Tw), preemptable
// by any waiter in [Tdw−, Tdw+), and vacates the slot at Tdw+. Disturbances
// arriving between samples are observed at the next sample boundary
// (the buffer0/buffer construction of Figs. 6–7).
//
// The rules are stated once, in the arbiter's step: Advance, then Decide.
// Tick drives it for the co-simulator (internal/sim), Refute and every
// counterexample replay (internal/verify), and it is the reference the
// exact verifier's packed kernel is held to: TestKernelMatchesReference
// and FuzzKernelVsReference (internal/verify) compare the kernel's
// successors of a state with this step's over every disturbance and tie
// choice. So a grant schedule produced here is exactly a run of the
// verified model.
package sched

import (
	"fmt"
	"slices"

	"tightcps/internal/switching"
)

// Phase is the lifecycle phase of an application with respect to the slot.
type Phase uint8

// Application phases (mirroring the states of the Fig. 5 application
// automaton).
const (
	Steady   Phase = iota // no active disturbance; may be disturbed anytime
	Waiting               // disturbed, waiting for the TT slot (ET_Wait)
	Granted               // holding the TT slot (TT)
	Cooldown              // left the slot, quiescent until r elapses (ET_SAFE)
	Failed                // missed its deadline: wait exceeded T*w (Error)
)

func (p Phase) String() string {
	switch p {
	case Steady:
		return "Steady"
	case Waiting:
		return "Waiting"
	case Granted:
		return "Granted"
	case Cooldown:
		return "Cooldown"
	case Failed:
		return "Failed"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// PreemptionPolicy selects when a preemptable occupant is actually evicted.
type PreemptionPolicy uint8

const (
	// PreemptEager is the paper's strategy: evict the occupant as soon as
	// its minimum dwell has elapsed and any application is waiting.
	PreemptEager PreemptionPolicy = iota
	// PreemptLazy is the paper's future-work variant: let the occupant keep
	// improving until the most urgent waiter is about to run out of slack,
	// then evict. Improves average performance; safety must be re-verified.
	PreemptLazy
)

// Options configures an Arbiter.
type Options struct {
	Policy PreemptionPolicy
}

// Event records one scheduler action at a given sample instant.
type Event struct {
	Time int // sample instant
	App  int // application index
	Kind EventKind
	Tw   int // wait at grant time (Granted events)
	CT   int // dwell at eviction (PreemptedEv/VacatedEv events)
}

// EventKind enumerates scheduler actions.
type EventKind uint8

// Scheduler event kinds.
const (
	GrantedEv EventKind = iota
	PreemptedEv
	VacatedEv
	MissedEv // deadline exceeded: the application will violate J*
)

func (k EventKind) String() string {
	switch k {
	case GrantedEv:
		return "granted"
	case PreemptedEv:
		return "preempted"
	case VacatedEv:
		return "vacated"
	case MissedEv:
		return "missed"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// AppState is one application's part of the arbiter's State.
type AppState struct {
	Phase Phase
	// Clock counts the samples since the disturbance was observed: the
	// wait while Waiting, the wait at grant plus the dwell while Granted.
	// A Steady clock is stale; admission restarts it.
	Clock int
}

// State is everything the slot's rules read and write between two sample
// instants. No field is derivable from another: a waiter's wait is its
// Clock, the occupant's wait at grant is its Clock − Dwell, and only the
// occupant has a dwell and a window.
type State struct {
	Apps         []AppState // by application index
	Occupant     int        // slot holder, −1 when idle
	Dwell        int        // samples the occupant has held the slot
	DtMin, DtMax int        // the occupant's Tdw−(Tw) and Tdw+(Tw), latched at grant
}

// Arbiter is the runtime slot scheduler for one TT slot shared by a set of
// applications.
type Arbiter struct {
	profiles []*switching.Profile
	opts     Options
	// State is the arbiter's current state. Tick steps it; a model checker
	// may set it, Advance it once and Decide each of its choices on a copy.
	State  State
	now    int     // current sample instant
	events []Event // the log; past logged, what an uncommitted Decide did
	logged int     // events Tick has committed
}

// NewArbiter creates an arbiter for the applications described by the given
// switching profiles, all in Steady phase, slot idle, at sample 0.
func NewArbiter(profiles []*switching.Profile, opts Options) *Arbiter {
	return &Arbiter{
		profiles: profiles,
		opts:     opts,
		State:    State{Apps: make([]AppState, len(profiles)), Occupant: -1},
	}
}

// Phase returns application i's phase.
func (a *Arbiter) Phase(i int) Phase { return a.State.Apps[i].Phase }

// Events returns the event log accumulated so far.
func (a *Arbiter) Events() []Event { return a.events[:a.logged] }

// InTT reports whether application i transmits over the TT slot during the
// sample starting at the current instant.
func (a *Arbiter) InTT(i int) bool { return a.State.Occupant == i }

// Tick advances the arbiter by one sample. disturbed lists the applications
// whose disturbance is observed at this instant (it must be ≥ r samples
// since their previous disturbance observation; violations are reported as
// an error). The very first call processes instant 0.
func (a *Arbiter) Tick(disturbed []int) error {
	a.Advance()
	if err := a.checkDisturbed(disturbed); err != nil {
		return err
	}
	a.Decide(disturbed, -1)
	a.logged = len(a.events)
	a.now++
	return nil
}

// checkDisturbed refuses what Decide cannot admit: an unknown application,
// or one observed again before its r samples have elapsed — listed twice
// at one instant included. A Failed application may be disturbed: Error
// is absorbing (Fig. 5), so later disturbances are moot.
func (a *Arbiter) checkDisturbed(disturbed []int) error {
	for k, i := range disturbed {
		if i < 0 || i >= len(a.State.Apps) {
			return fmt.Errorf("sched: disturbance for unknown app %d", i)
		}
		ph := a.State.Apps[i].Phase
		if ph == Steady && slices.Contains(disturbed[:k], i) {
			ph = Waiting
		}
		if ph != Steady && ph != Failed {
			return fmt.Errorf("sched: app %d disturbed in phase %s (min inter-arrival r=%d violated)",
				i, ph, a.profiles[i].R)
		}
	}
	return nil
}

// Advance moves the state one sample forward: every running clock and the
// occupant's dwell tick, and an application in Cooldown whose r has
// elapsed is Steady again.
func (a *Arbiter) Advance() {
	s := &a.State
	for i := range s.Apps {
		st := &s.Apps[i]
		switch st.Phase {
		case Waiting, Granted:
			st.Clock++
		case Cooldown:
			if st.Clock++; st.Clock >= a.profiles[i].R {
				st.Phase = Steady
			}
		}
	}
	if s.Occupant >= 0 {
		s.Dwell++
	}
}

// Decide applies one sample instant's rules to the advanced state: it
// admits the disturbed applications (each Steady or Failed), evicts the
// occupant — at Tdw+, or in [Tdw−, Tdw+) while someone waits as the policy
// says — grants an idle slot, and fails every waiter whose wait has
// reached T*w. tie < 0 grants the most urgent waiter: the smallest
// deadline D = T*w − Tw, then the smaller max Tdw− (the paper's secondary
// sort key), then the lower index. tie = k grants instead the k-th, in
// index order, of the waiters tied at the smallest deadline — a model
// checker's nondeterministic choice. Decide returns how many waiters tied
// there when the slot was idle (0 when it was held) and the lowest index
// that missed, or −1. Its events replace those of the last Decide that
// Tick did not commit to the log.
func (a *Arbiter) Decide(disturbed []int, tie int) (ties, missed int) {
	a.events = a.events[:a.logged]
	s := &a.State
	for _, i := range disturbed {
		if s.Apps[i].Phase == Steady {
			s.Apps[i] = AppState{Phase: Waiting}
		}
	}
	a.evictIfDue()
	if s.Occupant < 0 {
		var w int
		if w, ties = a.urgent(tie); w >= 0 {
			a.grant(w)
		}
	}
	// A waiter whose wait has reached T*w cannot be granted in time
	// anymore: the next opportunity would be at Tw = T*w+1.
	missed = -1
	for i := range s.Apps {
		if st := &s.Apps[i]; st.Phase == Waiting && st.Clock >= a.profiles[i].TwStar {
			st.Phase = Failed
			a.events = append(a.events, Event{Time: a.now, App: i, Kind: MissedEv, Tw: st.Clock})
			if missed < 0 {
				missed = i
			}
		}
	}
	return ties, missed
}

// evictIfDue applies the forced vacate at Tdw+ and the policy-dependent
// preemption in [Tdw−, Tdw+).
func (a *Arbiter) evictIfDue() {
	s := &a.State
	if s.Occupant < 0 {
		return
	}
	if s.Dwell >= s.DtMax {
		a.release(VacatedEv)
		return
	}
	if s.Dwell < s.DtMin {
		return // non-preemptable window
	}
	waiter, _ := a.urgent(0) // a waiter at the smallest deadline
	if waiter < 0 {
		return
	}
	switch a.opts.Policy {
	case PreemptEager:
		a.release(PreemptedEv)
	case PreemptLazy:
		// Evict only when the most urgent waiter has exhausted its slack:
		// granting any later would exceed its T*w.
		if a.deadline(waiter) <= 0 {
			a.release(PreemptedEv)
		}
	}
}

// release moves the occupant to Cooldown and frees the slot.
func (a *Arbiter) release(kind EventKind) {
	s := &a.State
	a.events = append(a.events, Event{Time: a.now, App: s.Occupant, Kind: kind, CT: s.Dwell})
	s.Apps[s.Occupant].Phase = Cooldown
	s.Occupant = -1
}

// deadline is waiter i's remaining slack D = T*w − Tw.
func (a *Arbiter) deadline(i int) int {
	return a.profiles[i].TwStar - a.State.Apps[i].Clock
}

// urgent picks the waiter Decide grants under tie (see Decide) and counts
// the waiters tied at the smallest deadline. It returns −1 when none
// waits, or when fewer than tie+1 tie.
func (a *Arbiter) urgent(tie int) (pick, ties int) {
	pick = -1
	bestD, bestKey := 0, 0
	for i := range a.State.Apps {
		if a.State.Apps[i].Phase != Waiting {
			continue
		}
		switch d := a.deadline(i); {
		case pick < 0 || d < bestD:
			pick, bestD, ties = i, d, 1
			if tie < 0 {
				bestKey = a.profiles[i].MaxTdwMinus()
			}
		case d == bestD:
			ties++
			if tie < 0 {
				if key := a.profiles[i].MaxTdwMinus(); key < bestKey {
					pick, bestKey = i, key
				}
			}
		}
	}
	if tie <= 0 || pick < 0 {
		return pick, ties
	}
	for i := pick + 1; i < len(a.State.Apps); i++ {
		if a.State.Apps[i].Phase == Waiting && a.deadline(i) == bestD {
			if tie--; tie == 0 {
				return i, ties
			}
		}
	}
	return -1, ties
}

// grant hands the idle slot to waiter w, latching its dwell window from
// the profile table.
func (a *Arbiter) grant(w int) {
	s := &a.State
	st := &s.Apps[w]
	dtMin, dtMax, ok := a.profiles[w].Lookup(st.Clock)
	if !ok {
		// Past T*w: no dwell window can save it; Decide records the miss.
		return
	}
	st.Phase = Granted
	s.Occupant, s.Dwell, s.DtMin, s.DtMax = w, 0, dtMin, dtMax
	a.events = append(a.events, Event{Time: a.now, App: w, Kind: GrantedEv, Tw: st.Clock})
}

// Missed reports whether any application has missed its deadline so far.
func (a *Arbiter) Missed() bool {
	for i := range a.State.Apps {
		if a.State.Apps[i].Phase == Failed {
			return true
		}
	}
	return false
}

// Occupancy reconstructs, from the event log, which application held the
// slot during each sample [0, horizon): entry k is the occupant index
// during sample k, or −1 when idle.
func Occupancy(events []Event, horizon int) []int {
	out := make([]int, horizon)
	for i := range out {
		out[i] = -1
	}
	holder := -1
	since := 0
	fill := func(until int) {
		for k := since; k < until && k < horizon; k++ {
			out[k] = holder
		}
	}
	for _, e := range events {
		switch e.Kind {
		case GrantedEv:
			fill(e.Time)
			holder, since = e.App, e.Time
		case PreemptedEv, VacatedEv:
			fill(e.Time)
			holder, since = -1, e.Time
		}
	}
	fill(horizon)
	return out
}
