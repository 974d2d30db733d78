package dverify

import (
	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// meshTracker is the coordinator's fold of one set of answers — a finished
// round's, or the Finish round's — into the run's totals and verdict. It is
// pure bookkeeping (no I/O).
type meshTracker struct {
	fresh       int
	transitions int
	maxFresh    int
	tooLarge    bool
	haveViol    bool
	violState   verify.PackedState
	violApp     int
	wire        verify.WireStats
}

// observe folds one round's answers into the tracker. Counters are
// cumulative, so the round replaces (never accumulates) totals. Nil
// responses (evicted nodes on a fault-tolerant run) are skipped — their
// shards' counters live in the survivors after the restart. A violation
// is of the round's level; the minimum violating state across the nodes is
// the verdict's violator, as in the local lanes.
func (t *meshTracker) observe(resps []*Response) {
	*t = meshTracker{violApp: -1, wire: verify.WireStats{Links: t.wire.Links[:0]}}
	for _, r := range resps {
		if r == nil {
			continue
		}
		t.fresh += r.Fresh
		t.transitions += r.Transitions
		t.maxFresh = max(t.maxFresh, r.MaxFresh)
		t.tooLarge = t.tooLarge || r.TooLarge
		if r.Viol && (!t.haveViol || r.ViolState < t.violState) {
			t.haveViol, t.violState, t.violApp = true, r.ViolState, r.ViolApp
		}
		t.wire.Add(verify.WireStats{
			RoutedStates: r.Routed,
			RawBytes:     r.RawBytes,
			WireBytes:    r.WireBytes,
			Links:        r.Links,
		})
	}
}

// nextRound turns a finished round's answers into the next round's Expect
// per node — the states its peers shipped it — and reports whether the
// next level can hold anything: a state shipped (it may prove a duplicate
// on arrival, so a search can end on one round that absorbs duplicates
// only) or committed.
func nextRound(resps []*Response, expect []int) bool {
	clear(expect)
	more := false
	for _, r := range resps {
		if r == nil {
			continue
		}
		for d, v := range r.SentTo {
			expect[d] += v
			more = more || v > 0
		}
		more = more || r.Next > 0
	}
	return more
}

// statesThrough sums the nodes' commits to levels 0..depth: a violating
// run's States, the local searches' count up to the violating level (the
// nodes that found no violation there have already committed some of the
// next).
func statesThrough(resps []*Response, depth int) int {
	n := 0
	for _, r := range resps {
		if r == nil {
			continue
		}
		for _, v := range r.FreshByLevel[:min(len(r.FreshByLevel), depth+1)] {
			n += v
		}
	}
	return n
}

// foldMeshTrace folds the final answers into the run trace: each worker's
// cumulative per-level fresh commits sum (across nodes) to the global
// frontier size of every BFS level through depth — the same per-level
// counts the local drivers record — plus one NodeSpan per worker (states
// it shipped, and states shipped to it, from the link counters) and the
// round count. Per-level transitions are not attributed in the mesh
// (workers count them per session, not per level), so the spans carry
// states only.
func foldMeshTrace(trace *obs.Trace, resps []*Response, rounds, depth int) {
	if trace == nil {
		return
	}
	recv := make([]int, len(resps))
	for _, r := range resps {
		if r == nil {
			continue
		}
		for _, l := range r.Links {
			if l.To < len(recv) {
				recv[l.To] += l.States
			}
		}
	}
	for i, r := range resps {
		if r == nil {
			continue // evicted node; its levels live in the survivors
		}
		for l, v := range r.FreshByLevel[:min(len(r.FreshByLevel), depth+1)] {
			if v > 0 {
				trace.AddLevel(l, v, 0)
			}
		}
		trace.AddNode(i, r.Fresh, r.MaxFresh, r.Routed, recv[i])
	}
	trace.SetEpochs(rounds)
}
