package dverify

import (
	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// meshTracker is the coordinator's fold of one set of answers — a finished
// round's, or the Finish round's — into the run's totals and verdict. It is
// pure bookkeeping (no I/O), and the one place a total is derived from the
// answers' per-level commits and per-peer shipments.
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
// cumulative, so the round replaces (never accumulates) totals. A violation
// is of the round's level; the minimum violating state across the nodes is
// the verdict's violator, as in the local lanes. The links are node i's
// Shipped entries, in (From, To) order.
func (t *meshTracker) observe(resps []*Response) {
	*t = meshTracker{violApp: -1, wire: verify.WireStats{Links: t.wire.Links[:0]}}
	for i, r := range resps {
		fresh, deepest := r.fresh()
		t.fresh += fresh
		t.maxFresh = max(t.maxFresh, deepest)
		t.transitions += r.Transitions
		t.tooLarge = t.tooLarge || r.TooLarge
		if r.ViolApp >= 0 && (!t.haveViol || r.ViolState < t.violState) {
			t.haveViol, t.violState, t.violApp = true, r.ViolState, r.ViolApp
		}
		for d, n := range r.Shipped {
			if n > 0 {
				t.wire.RoutedStates += n
				t.wire.Links = append(t.wire.Links, verify.LinkWire{From: i, To: d, States: n})
			}
		}
	}
}

// fresh sums the node's commits and names the deepest level holding one
// (the node's contribution to Result.Depth).
func (r *Response) fresh() (n, deepest int) {
	for l, v := range r.FreshByLevel {
		n += v
		if v > 0 {
			deepest = l
		}
	}
	return n, deepest
}

// routed sums the states the node shipped to its peers.
func (r *Response) routed() int {
	n := 0
	for _, v := range r.Shipped {
		n += v
	}
	return n
}

// nextRound turns a finished round of level's answers into the next
// round's Expect per node — the states its peers shipped it — and reports
// whether the next level can hold anything: a state shipped (it may prove a
// duplicate on arrival, so a search can end on one round that absorbs
// duplicates only) or committed.
func nextRound(resps []*Response, expect []int, level int) bool {
	clear(expect)
	more := false
	for _, r := range resps {
		for d, v := range r.SentTo {
			expect[d] += v
			more = more || v > 0
		}
		more = more || level+1 < len(r.FreshByLevel) && r.FreshByLevel[level+1] > 0
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
// it shipped, and states shipped to it) and the round count. Per-level
// transitions are not attributed in the mesh (workers count them per
// session, not per level), so the spans carry states only.
func foldMeshTrace(trace *obs.Trace, resps []*Response, rounds, depth int) {
	if trace == nil {
		return
	}
	recv := make([]int, len(resps))
	for _, r := range resps {
		for d, v := range r.Shipped[:min(len(r.Shipped), len(recv))] {
			recv[d] += v
		}
	}
	for i, r := range resps {
		for l, v := range r.FreshByLevel[:min(len(r.FreshByLevel), depth+1)] {
			if v > 0 {
				trace.AddLevel(l, v, 0)
			}
		}
		fresh, deepest := r.fresh()
		trace.AddNode(i, fresh, deepest, r.routed(), recv[i])
	}
	trace.SetEpochs(rounds)
}
