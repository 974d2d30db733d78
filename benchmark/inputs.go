package main

import (
	"fmt"

	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// fleet builds n identical profiles (distinct names) with constant dwell
// windows — the homogeneous-fleet input of the wide encoding and the
// symmetry quotient, the same shape cmd/bench and bench_test.go use.
func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		k := twStar + 1
		minT, plusT := make([]int, k), make([]int, k)
		for j := range minT {
			minT[j], plusT[j] = dm, dp
		}
		out[i] = &switching.Profile{
			Name: fmt.Sprintf("F%d", i), TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
			R: r, Granularity: 1, JStar: twStar + dp,
			JAtMin: make([]int, k), JBest: make([]int, k),
		}
	}
	return out
}

// pin is the pinned answer of one slot verification.
type pin struct {
	schedulable bool
	// states is checked on schedulable slots (the search is exhaustive, so
	// the count is engine-independent) and, for violating slots, on the
	// sequential engine only: how far a concurrent search runs before it
	// sees the violation is engine-dependent by design.
	states int
	depth  int
	// violator is the sequential engine's first violator; parViolator the
	// minimum-state violator every parallel and distributed engine reports.
	violator, parViolator int
}

// check compares a verdict with the pin. seq says the sequential engine
// produced it.
func (p pin) check(res verify.Result, err error, seq bool) error {
	switch {
	case err != nil:
		return err
	case res.Schedulable != p.schedulable:
		return fmt.Errorf("schedulable=%v, want %v", res.Schedulable, p.schedulable)
	case res.Depth != p.depth:
		return fmt.Errorf("depth %d, want %d", res.Depth, p.depth)
	case (p.schedulable || seq) && res.States != p.states:
		return fmt.Errorf("%d states, want %d", res.States, p.states)
	}
	if !p.schedulable {
		want := p.parViolator
		if seq {
			want = p.violator
		}
		if res.Violator != want {
			return fmt.Errorf("violator %d, want %d", res.Violator, want)
		}
	}
	return nil
}

// slotCase is one verification input with its pinned answer.
type slotCase struct {
	name     string
	apps     []string // case-study names; nil for generated fleets
	profiles []*switching.Profile
	symmetry bool
	want     pin
}

func (c slotCase) config(workers int) verify.Config {
	return verify.Config{NondetTies: true, SymmetryReduction: c.symmetry, Workers: workers}
}

// slotCases are the verification inputs of slot-verify and admit-serve.
type slotCases struct {
	// s1 is the headline schedulable narrow slot, wide the violating fleet
	// on the wide encoding, viol the violating narrow slot, small the
	// fixed-per-job-cost slot, sym the fleet under the symmetry quotient.
	s1, wide, viol, small, sym slotCase
}

// loadSlotCases resolves the case-study slots through plants.ProfileList —
// the first call computes the process-wide Table 1 profile memo, which is
// why this is set-up. At smoke scale the big slots are replaced by small
// ones with the same shape (schedulable narrow, violating wide, violating
// narrow).
func loadSlotCases(smoke bool) (*slotCases, error) {
	cs := &slotCases{
		s1:    slotCase{name: "S1", apps: []string{"C1", "C5", "C4", "C3"}, want: pin{schedulable: true, states: 1440712, depth: 50}},
		wide:  slotCase{name: "W7", profiles: fleet(7, 5, 1, 2, 8), want: pin{states: 1833217, depth: 5, violator: 6, parViolator: 6}},
		viol:  slotCase{name: "V5", apps: []string{"C1", "C5", "C4", "C3", "C6"}, want: pin{states: 681400, depth: 12, violator: 0, parViolator: 2}},
		small: slotCase{name: "S2", apps: []string{"C6", "C2"}, want: pin{schedulable: true, states: 10201, depth: 100}},
		sym:   slotCase{name: "F9", profiles: fleet(9, 8, 1, 2, 9), symmetry: true, want: pin{schedulable: true, states: 50050, depth: 10}},
	}
	if smoke {
		cs.s1 = slotCase{name: "S1", apps: []string{"C1", "C5", "C6"}, want: pin{schedulable: true, states: 68764, depth: 100}}
		cs.wide = slotCase{name: "W7", profiles: fleet(7, 2, 1, 2, 8), want: pin{states: 28336, depth: 2, violator: 3, parViolator: 3}}
		cs.viol = slotCase{name: "V5", apps: []string{"C6", "C2", "C1"}, want: pin{states: 3233, depth: 13, violator: 2, parViolator: 2}}
	}
	for _, c := range []*slotCase{&cs.s1, &cs.wide, &cs.viol, &cs.small, &cs.sym} {
		if c.apps == nil {
			continue
		}
		ps, err := plants.ProfileList(c.apps...)
		if err != nil {
			return nil, err
		}
		c.profiles = ps
	}
	return cs, nil
}
