// Package baseline reconstructs the comparison scheme of Masrur et al. [9]
// ("Timing analysis of cyber-physical applications for hybrid communication
// protocols", DATE 2012) as the DAC paper describes it: a conservative
// switching strategy in which an application that obtains the TT slot holds
// it non-preemptively until its disturbance is fully rejected, with slot
// admission decided by a non-preemptive deadline-monotonic schedulability
// analysis (strategy 1) or its delayed-request refinement (strategy 2).
//
// [9] itself is not reproducible from the DAC paper alone, so the analysis
// is parameterised (blocking and deadline rules); the default rule set is
// the most natural reading (blocking = full-rejection dwell JT, deadline =
// T*w), and a calibrated deadline table reproducing the paper's reported
// 4-slot partition is provided alongside. `go run ./cmd/experiments -all`
// prints both.
package baseline

import (
	"fmt"
	"sort"

	"tightcps/internal/switching"
)

// Strategy selects one of the two schemes of [9].
type Strategy uint8

// Baseline strategies.
const (
	// NonPreemptiveDM is strategy 1: standard non-preemptive deadline-
	// monotonic acquisition analysis.
	NonPreemptiveDM Strategy = iota
	// DelayedRequest is strategy 2: lower-priority applications delay their
	// slot requests so higher-priority ones see shorter blocking; the
	// delayed application's own deadline budget shrinks by the delay.
	DelayedRequest
)

// AppTiming is the baseline view of one application.
type AppTiming struct {
	Name string
	// C is the slot tenure: the baseline occupant holds the slot until full
	// rejection, i.e. its dedicated-slot settling time JT (samples).
	C int
	// D is the acquisition deadline: the latest wait that still allows the
	// requirement to be met (T*w by default).
	D int
	// R is the minimum disturbance inter-arrival time (samples).
	R int
}

// FromProfile derives the default baseline timing of an application from
// its switching profile: C = JT (hold until rejected), D = T*w.
func FromProfile(p *switching.Profile) AppTiming {
	return AppTiming{Name: p.Name, C: p.JT, D: p.TwStar, R: p.R}
}

// Analysis performs the slot-sharing admission test.
type Analysis struct {
	Strategy Strategy
}

// priorityOrder sorts by deadline (DM), ties by smaller C, then name.
func priorityOrder(apps []AppTiming) []int {
	idx := make([]int, len(apps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := apps[idx[a]], apps[idx[b]]
		if x.D != y.D {
			return x.D < y.D
		}
		if x.C != y.C {
			return x.C < y.C
		}
		return x.Name < y.Name
	})
	return idx
}

// Schedulable decides whether the applications can share one TT slot under
// the baseline strategy: for each application, the worst-case slot
// acquisition wait — non-preemptive blocking by at most one lower-priority
// occupant plus the tenures of all higher-priority applications, iterated
// for re-arrivals within the wait window — must not exceed its deadline.
func (an Analysis) Schedulable(apps []AppTiming) bool {
	if len(apps) <= 1 {
		return true
	}
	order := priorityOrder(apps)
	for rank, i := range order {
		a := apps[i]
		// Blocking: the longest tenure among lower-priority apps (the slot
		// is non-preemptive).
		block := 0
		for _, j := range order[rank+1:] {
			if apps[j].C > block {
				block = apps[j].C
			}
		}
		// Strategy 2 removes lower-priority blocking (requests are delayed
		// past the contention window) but charges the app its own delay.
		delay := 0
		if an.Strategy == DelayedRequest {
			block = 0
			// The app's own request is delayed by the longest higher-
			// priority tenure it would otherwise block.
			for _, j := range order[:rank] {
				if apps[j].C > delay {
					delay = apps[j].C
				}
			}
			// Highest-priority app needs no delay.
			if rank == 0 {
				delay = 0
			}
		}
		// Response-time iteration: w = block + Σ_hp ⌈w / r_j⌉ · C_j.
		w := block
		for _, j := range order[:rank] {
			w += apps[j].C
		}
		for iter := 0; iter < 1000; iter++ {
			next := block
			for _, j := range order[:rank] {
				hits := 1 + w/apps[j].R
				next += hits * apps[j].C
			}
			if next == w {
				break
			}
			w = next
		}
		if w+delay > a.D {
			return false
		}
	}
	return true
}

// FirstFitOrdered maps applications to slots with the first-fit
// heuristic, processing them in the given order, and returns the slot
// partitions as index lists into apps (the paper compares both methods
// under its T*w-sorted order, so the placement order is decoupled from the
// DM priorities the schedulability test uses internally).
func (an Analysis) FirstFitOrdered(apps []AppTiming, order []int) [][]int {
	var slots [][]int
	for _, i := range order {
		placed := false
		for si := range slots {
			trial := make([]AppTiming, 0, len(slots[si])+1)
			for _, j := range slots[si] {
				trial = append(trial, apps[j])
			}
			trial = append(trial, apps[i])
			if an.Schedulable(trial) {
				slots[si] = append(slots[si], i)
				placed = true
				break
			}
		}
		if !placed {
			slots = append(slots, []int{i})
		}
	}
	return slots
}

// CalibratedTiming is one row of the paper-calibrated baseline input: the
// published Table 1 values (JT as tenure, T*w as deadline) with a single
// adjustment — C4's deadline is 10 instead of its T*w = 12. That adjustment
// stands in for the extra conservatism of [9]'s own analysis, which the DAC
// paper reports (4 slots: {C1,C5}, {C4,C3}, {C6}, {C2}) but does not
// reproduce in detail; it is the unique single-parameter change consistent
// with all six of the paper's reported accept/reject decisions.
type CalibratedTiming struct {
	Name    string
	JT      int
	TwStar  int
	DMApply int // deadline used by the analysis
}

// PaperCalibratedTimings returns the baseline timings reproducing the
// paper's reported [9] result, built from the published Table 1 numbers.
// rs maps application name → minimum inter-arrival time.
func PaperCalibratedTimings(rs map[string]int) ([]AppTiming, error) {
	rows := []CalibratedTiming{
		{"C1", 9, 11, 11},
		{"C2", 15, 13, 13},
		{"C3", 10, 15, 15},
		{"C4", 10, 12, 10}, // calibrated deadline
		{"C5", 10, 12, 12},
		{"C6", 11, 12, 12},
	}
	out := make([]AppTiming, 0, len(rows))
	for _, row := range rows {
		r, ok := rs[row.Name]
		if !ok {
			return nil, fmt.Errorf("baseline: missing inter-arrival time for %s", row.Name)
		}
		out = append(out, AppTiming{Name: row.Name, C: row.JT, D: row.DMApply, R: r})
	}
	return out, nil
}

// SlotNames renders a partition using application names.
func SlotNames(apps []AppTiming, slots [][]int) [][]string {
	out := make([][]string, len(slots))
	for si, slot := range slots {
		for _, i := range slot {
			out[si] = append(out[si], apps[i].Name)
		}
	}
	return out
}
