// Package sched implements the paper's TT-slot arbiter (Sec. 4, Fig. 7):
// an EDF-like scheduler in which the deadline of a waiting application is
// D = T*w − Tw, an occupant is non-preemptable until Tdw−(Tw), preemptable
// by any waiter in [Tdw−, Tdw+), and vacates the slot at Tdw+. Disturbances
// arriving between samples are observed at the next sample boundary
// (the buffer0/buffer construction of Figs. 6–7).
//
// The same step semantics are used by the co-simulator (internal/sim) and
// cross-validated against the exact verifier (internal/verify), so a grant
// schedule produced here is exactly a run of the verified model.
package sched

import (
	"fmt"

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

// appState is the arbiter's per-application runtime state.
type appState struct {
	phase Phase
	clock int // samples since the disturbance was observed
	wt    int // wait so far (== clock while Waiting)
	cT    int // dwell so far (Granted only)
	dtMin int // Tdw−(Tw) latched at grant
	dtMax int // Tdw+(Tw) latched at grant
	tw    int // wait latched at grant
}

// Arbiter is the runtime slot scheduler for one TT slot shared by a set of
// applications.
type Arbiter struct {
	profiles []*switching.Profile
	opts     Options
	apps     []appState
	occupant int // index of slot holder, −1 when idle
	now      int // current sample instant
	events   []Event
}

// NewArbiter creates an arbiter for the applications described by the given
// switching profiles, all in Steady phase, slot idle, at sample 0.
func NewArbiter(profiles []*switching.Profile, opts Options) *Arbiter {
	a := &Arbiter{
		profiles: profiles,
		opts:     opts,
		apps:     make([]appState, len(profiles)),
		occupant: -1,
	}
	return a
}

// Phase returns application i's phase.
func (a *Arbiter) Phase(i int) Phase { return a.apps[i].phase }

// Wait returns application i's current wait (valid while Waiting).
func (a *Arbiter) Wait(i int) int { return a.apps[i].wt }

// Events returns the event log accumulated so far.
func (a *Arbiter) Events() []Event { return a.events }

// InTT reports whether application i transmits over the TT slot during the
// sample starting at the current instant.
func (a *Arbiter) InTT(i int) bool { return a.occupant == i }

// Tick advances the arbiter by one sample. disturbed lists the applications
// whose disturbance is observed at this instant (it must be ≥ r samples
// since their previous disturbance observation; violations are reported as
// an error). The very first call processes instant 0.
func (a *Arbiter) Tick(disturbed []int) error {
	if a.now > 0 {
		a.advanceClocks()
	}
	a.finishCooldowns()
	if err := a.admit(disturbed); err != nil {
		return err
	}
	a.evictIfDue()
	a.grant()
	a.flagMisses()
	a.now++
	return nil
}

// advanceClocks moves every per-application clock one sample forward.
func (a *Arbiter) advanceClocks() {
	for i := range a.apps {
		st := &a.apps[i]
		switch st.phase {
		case Waiting:
			st.clock++
			st.wt++
		case Granted:
			st.clock++
			st.cT++
		case Cooldown:
			st.clock++
		}
	}
}

// finishCooldowns returns applications whose minimum inter-arrival time has
// elapsed to Steady.
func (a *Arbiter) finishCooldowns() {
	for i := range a.apps {
		st := &a.apps[i]
		if st.phase == Cooldown && st.clock >= a.profiles[i].R {
			st.phase = Steady
		}
	}
}

// admit moves newly disturbed Steady applications into Waiting.
func (a *Arbiter) admit(disturbed []int) error {
	for _, i := range disturbed {
		if i < 0 || i >= len(a.apps) {
			return fmt.Errorf("sched: disturbance for unknown app %d", i)
		}
		st := &a.apps[i]
		if st.phase == Failed {
			continue // Error is absorbing (Fig. 5); later disturbances are moot
		}
		if st.phase != Steady {
			return fmt.Errorf("sched: app %d disturbed in phase %s (min inter-arrival r=%d violated)",
				i, st.phase, a.profiles[i].R)
		}
		st.phase = Waiting
		st.clock = 0
		st.wt = 0
	}
	return nil
}

// evictIfDue applies the forced vacate at Tdw+ and the policy-dependent
// preemption in [Tdw−, Tdw+).
func (a *Arbiter) evictIfDue() {
	if a.occupant < 0 {
		return
	}
	st := &a.apps[a.occupant]
	if st.cT >= st.dtMax {
		a.release(VacatedEv)
		return
	}
	if st.cT < st.dtMin {
		return // non-preemptable window
	}
	waiter := a.mostUrgentWaiter()
	if waiter < 0 {
		return
	}
	switch a.opts.Policy {
	case PreemptEager:
		a.release(PreemptedEv)
	case PreemptLazy:
		// Evict only when the most urgent waiter has exhausted its slack:
		// granting any later would exceed its T*w.
		if a.profiles[waiter].TwStar-a.apps[waiter].wt <= 0 {
			a.release(PreemptedEv)
		}
	}
}

// release moves the occupant to Cooldown and frees the slot.
func (a *Arbiter) release(kind EventKind) {
	st := &a.apps[a.occupant]
	a.events = append(a.events, Event{Time: a.now, App: a.occupant, Kind: kind, CT: st.cT})
	st.phase = Cooldown
	a.occupant = -1
}

// mostUrgentWaiter returns the waiting application with the smallest
// deadline D = T*w − Tw, breaking ties by smaller max Tdw− (the paper's
// secondary sort key) and then by index. Returns −1 when none waits.
func (a *Arbiter) mostUrgentWaiter() int {
	best := -1
	bestD, bestTie := 0, 0
	for i := range a.apps {
		if a.apps[i].phase != Waiting {
			continue
		}
		d := a.profiles[i].TwStar - a.apps[i].wt
		tie := a.profiles[i].MaxTdwMinus()
		if best < 0 || d < bestD || (d == bestD && tie < bestTie) {
			best, bestD, bestTie = i, d, tie
		}
	}
	return best
}

// grant hands an idle slot to the most urgent waiter, latching its dwell
// window from the profile table.
func (a *Arbiter) grant() {
	if a.occupant >= 0 {
		return
	}
	w := a.mostUrgentWaiter()
	if w < 0 {
		return
	}
	st := &a.apps[w]
	dtMin, dtMax, ok := a.profiles[w].Lookup(st.wt)
	if !ok {
		// Past T*w: no dwell window can save it; flagMisses will record it.
		return
	}
	st.phase = Granted
	st.cT = 0
	st.tw = st.wt
	st.dtMin, st.dtMax = dtMin, dtMax
	a.occupant = w
	a.events = append(a.events, Event{Time: a.now, App: w, Kind: GrantedEv, Tw: st.wt})
}

// flagMisses records deadline violations: a still-waiting application whose
// wait has reached T*w cannot be granted in time anymore (the next
// opportunity would be at Tw = T*w+1).
func (a *Arbiter) flagMisses() {
	for i := range a.apps {
		st := &a.apps[i]
		if st.phase == Waiting && st.wt >= a.profiles[i].TwStar {
			st.phase = Failed
			a.events = append(a.events, Event{Time: a.now, App: i, Kind: MissedEv, Tw: st.wt})
		}
	}
}

// Missed reports whether any application has missed its deadline so far.
func (a *Arbiter) Missed() bool {
	for i := range a.apps {
		if a.apps[i].phase == Failed {
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
