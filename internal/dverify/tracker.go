package dverify

import (
	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

// meshTracker is the coordinator's milestone state over one mesh run. It
// is pure bookkeeping (no I/O), so the epoch/termination invariants are
// unit-testable against adversarial snapshot interleavings.
type meshTracker struct {
	final       int // highest level with final membership everywhere
	done        int // highest level fully expanded everywhere
	sent, recv  []int
	drained     []int
	idle        []bool
	gone        []bool // evicted nodes: excluded from every milestone
	maxLevel    int
	maxFresh    int
	fresh       int
	transitions int
	tooLarge    bool
	haveViol    bool
	violLevel   int
	violState   verify.PackedState
	violApp     int
	wire        verify.WireStats
}

func newMeshTracker(n int) *meshTracker {
	return &meshTracker{done: -1, drained: make([]int, n), idle: make([]bool, n), gone: make([]bool, n), violApp: -1}
}

// observe folds one full poll round into the tracker. Counters are
// cumulative, so the round replaces (never accumulates) totals. Nil
// responses (evicted nodes on a fault-tolerant run) are skipped — their
// shards' counters live in the survivors after the rollback.
func (t *meshTracker) observe(resps []*Response) {
	t.sent = t.sent[:0]
	t.recv = t.recv[:0]
	t.fresh, t.transitions, t.maxFresh = 0, 0, 0
	t.wire = verify.WireStats{Links: t.wire.Links[:0]}
	for i, r := range resps {
		if r == nil {
			continue
		}
		t.drained[i] = r.Drained
		t.idle[i] = r.Idle
		t.fresh += r.Fresh
		t.transitions += r.Transitions
		if r.MaxFresh > t.maxFresh {
			t.maxFresh = r.MaxFresh
		}
		t.tooLarge = t.tooLarge || r.TooLarge
		for l, v := range r.SentByLevel {
			for len(t.sent) <= l {
				t.sent = append(t.sent, 0)
			}
			t.sent[l] += v
		}
		for l, v := range r.RecvByLevel {
			for len(t.recv) <= l {
				t.recv = append(t.recv, 0)
			}
			t.recv[l] += v
		}
		if r.Viol && (!t.haveViol || r.ViolLevel < t.violLevel ||
			(r.ViolLevel == t.violLevel && verify.LessState(r.ViolState, t.violState))) {
			t.haveViol, t.violLevel, t.violState, t.violApp = true, r.ViolLevel, r.ViolState, r.ViolApp
		}
		t.wire.Add(verify.WireStats{
			RoutedStates:   r.Routed,
			FilteredStates: r.Filtered,
			RawBytes:       r.RawBytes,
			WireBytes:      r.WireBytes,
			Links:          r.Links,
		})
	}
	t.maxLevel = t.maxFresh
	if len(t.sent)-1 > t.maxLevel {
		t.maxLevel = len(t.sent) - 1
	}
	if len(t.recv)-1 > t.maxLevel {
		t.maxLevel = len(t.recv) - 1
	}
}

func (t *meshTracker) sumAt(counts []int, l int) int {
	if l < len(counts) {
		return counts[l]
	}
	return 0
}

// advance raises the done/final milestones as far as the last observed
// round justifies. done(L) needs final(L) and every worker drained ≤ L;
// final(L+1) needs done(L) — sends tagged L+1 are then finished — plus
// matching cluster-wide sent/recv sums at L+1.
func (t *meshTracker) advance() {
	for {
		d := t.final
		for i, w := range t.drained {
			if t.gone[i] {
				continue
			}
			if w < d {
				d = w
			}
		}
		if d > t.done {
			t.done = d
			continue
		}
		if t.done == t.final && t.final < t.maxLevel+1 &&
			t.sumAt(t.sent, t.final+1) == t.sumAt(t.recv, t.final+1) {
			t.final++
			continue
		}
		return
	}
}

// rebase rewinds the tracker to a recovery cut: levels through the cut
// were restored from checkpoints (final membership), the cut level is
// the new frontier awaiting re-expansion. Cumulative totals and per-level
// sums are replaced wholesale by the next observe round — the workers'
// reset zeroed the counters these sums mirror — and the sticky budget
// flag is cleared because restore re-derives it from the restored
// membership. Violation knowledge survives: a found violation is a
// property of the state space, and the workers keep theirs too.
func (t *meshTracker) rebase(cut int) {
	t.final = cut
	if t.final < 0 {
		t.final = 0
	}
	t.done = -1
	t.sent, t.recv = t.sent[:0], t.recv[:0]
	t.maxLevel = 0
	t.tooLarge = false
}

// terminated reports whether the verdict is final: a violation whose
// level is fully expanded, or cluster-wide quiescence with every level's
// sent/recv sums matching (no state in flight, nothing left to expand).
func (t *meshTracker) terminated() bool {
	if t.haveViol && t.done >= t.violLevel {
		return true
	}
	for i, ok := range t.idle {
		if t.gone[i] {
			continue
		}
		if !ok {
			return false
		}
	}
	for l := 0; l <= t.maxLevel; l++ {
		if t.sumAt(t.sent, l) != t.sumAt(t.recv, l) {
			return false
		}
	}
	return true
}

// control renders the tracker's knowledge for the next poll round.
// controlInto fills c with the tracker's current milestones. The
// coordinator reuses one Control across rounds (workers read it inside
// the call and never retain it), so the poll loop allocates none.
func (t *meshTracker) controlInto(c *Control) {
	*c = Control{Final: t.final, Done: t.done}
	if t.haveViol {
		c.HaveViol, c.ViolLevel, c.ViolState = true, t.violLevel, t.violState
	}
}

// foldMeshTrace folds the final poll round into the run trace: each
// worker's cumulative per-level fresh commits sum (across nodes) to the
// global frontier size of every BFS level — the same per-level counts the
// local drivers record — plus one NodeSpan per worker and the epoch count.
// Per-level transitions are not attributed in the mesh (workers count them
// per session, not per level), so the spans carry states only.
func foldMeshTrace(trace *obs.Trace, resps []*Response, epochs int) {
	if trace == nil {
		return
	}
	for i, r := range resps {
		if r == nil {
			continue // evicted node; its levels live in the survivors
		}
		for l, v := range r.FreshByLevel {
			if v > 0 {
				trace.AddLevel(l, v, 0)
			}
		}
		sent, recv := 0, 0
		for _, v := range r.SentByLevel {
			sent += v
		}
		for _, v := range r.RecvByLevel {
			recv += v
		}
		trace.AddNode(i, r.Fresh, r.MaxFresh, sent, recv)
	}
	trace.SetEpochs(epochs)
}
