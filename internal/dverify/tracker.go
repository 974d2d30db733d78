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
	transitions int
	levels      []int // the nodes' commits summed per level
	haveViol    bool
	violState   verify.PackedState
	violApp     int
	wire        verify.WireStats
	live        []int // the attempt's node i is the cluster's live[i]
}

// observe folds one round's answers into the tracker. Counters are
// cumulative, so the round replaces (never accumulates) totals. A violation
// is of the round's level; the minimum violating state across the nodes is
// the verdict's violator, as in the local lanes. The links are the nodes'
// Shipped entries (addShipments).
func (t *meshTracker) observe(resps []*Response) {
	*t = meshTracker{levels: t.levels[:0], violApp: -1, wire: verify.WireStats{Links: t.wire.Links[:0]}, live: t.live}
	addShipments(&t.wire, resps, t.live)
	for _, r := range resps {
		for l, n := range r.FreshByLevel {
			if l == len(t.levels) {
				t.levels = append(t.levels, 0)
			}
			t.levels[l] += n
		}
		t.transitions += r.Transitions
		if r.ViolApp >= 0 && (!t.haveViol || r.ViolState < t.violState) {
			t.haveViol, t.violState, t.violApp = true, r.ViolState, r.ViolApp
		}
	}
}

// bust applies the budget rule to a finished round of level: it returns
// the first level whose prefix of the summed commits passes the budget —
// the run busts with the level before it as its Depth — or −1: every
// prefix fits, or only level+1's does not and a violator at level is the
// verdict. A node past its own budget makes the sum pass too.
func (t *meshTracker) bust(level, budget int) int {
	sum := 0
	for l, n := range t.levels {
		if sum += n; sum > budget {
			if t.haveViol && l > level {
				return -1
			}
			return l
		}
	}
	return -1
}

// addShipments folds the states each answer of an attempt shipped (a nil
// answer shipped nothing) into w: the routed total, and one link per peer
// shipped to, named by cluster node — the attempt's node i is live[i], so
// the links of attempts on different survivors add up per real link. live
// is ascending, so the links come in (From, To) order.
func addShipments(w *verify.WireStats, resps []*Response, live []int) {
	for i, r := range resps {
		if r == nil {
			continue
		}
		for d, n := range r.Shipped {
			if n > 0 {
				w.RoutedStates += n
				w.Links = append(w.Links, verify.LinkWire{From: live[i], To: live[d], States: n})
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

// foldMeshTrace folds the final attempt's answers into the run trace: one
// NodeSpan per worker (states it committed and shipped, and states shipped
// to it), named by cluster node (live), and the round count. The level
// spans come from Result.Levels, as on every engine.
func foldMeshTrace(trace *obs.Trace, resps []*Response, live []int, rounds int) {
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
		fresh, deepest := r.fresh()
		trace.AddNode(live[i], fresh, deepest, r.routed(), recv[i])
	}
	trace.SetEpochs(rounds)
}
