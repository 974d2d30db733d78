package verify

import (
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// Refute searches for a concrete counterexample by replaying a few canned
// adversarial disturbance schedules through the runtime arbiter
// (internal/sched — the same per-sample semantics the model checker
// explores). A true result proves the set unschedulable without any state
// search; false is inconclusive and the caller must fall back to Slot.
//
// Soundness: the deterministic arbiter's grant choices are a subset of the
// verifier's nondeterministic ones, and every replayed schedule respects
// the per-application inter-arrival bound, so any deadline miss found here
// is reachable in the model. The dimensioning sweep uses this as a
// prefilter — saturated fleets one instance past capacity are refuted in
// microseconds instead of exhausting a multi-million-state search budget.
func Refute(profiles []*switching.Profile, policy sched.PreemptionPolicy) bool {
	horizon := 0
	for _, p := range profiles {
		if l := p.R + p.TwStar; l > horizon {
			horizon = l
		}
	}
	horizon *= 4

	// Stagger 0: all applications disturbed at sample 0, then re-disturbed
	// the moment they become eligible (greedy saturation — the classic
	// critical instant). Larger staggers spread the initial burst, catching
	// sets whose worst case needs a partially drained buffer.
	// One disturbed set and one started mask serve every tick and stagger.
	started := make([]bool, len(profiles))
	dist := make([]int, 0, len(profiles))
	for _, stagger := range []int{0, 1, 2, 3} {
		arb := sched.NewArbiter(profiles, sched.Options{Policy: policy})
		clear(started)
		for k := 0; k <= horizon; k++ {
			dist = dist[:0]
			for i := range profiles {
				if !started[i] && k < i*stagger {
					continue
				}
				if arb.Phase(i) == sched.Steady {
					dist = append(dist, i)
					started[i] = true
				}
			}
			if err := arb.Tick(dist); err != nil {
				return false // malformed set; let the verifier report it
			}
			if arb.Missed() {
				return true
			}
		}
	}
	return false
}
