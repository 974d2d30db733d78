package dverify

import (
	"fmt"
	"sync"

	"tightcps/internal/verify"
)

// meshBatch is one level-tagged batch of decoded states crossing a mesh
// link, or a link failure surfaced into the owner's inbox. era tags the
// sender's recovery era (always 0 outside fault-tolerant runs): a
// receiver in a newer era drops the batch — the rollback already erased
// its accounting on both ends — and one in an older era parks it until
// its own recovery order arrives.
type meshBatch struct {
	from   int
	level  int
	era    int
	states []verify.PackedState
	err    error
}

// meshInbox is a worker's unbounded, mutex-guarded receive queue. Senders
// never block (so two workers flooding each other cannot deadlock) and
// nudge the notify channel so an idle owner wakes.
type meshInbox struct {
	mu     sync.Mutex
	q      []meshBatch
	notify chan struct{}
}

func newMeshInbox() *meshInbox {
	// The queue and the worker's drain spare ping-pong, so pre-sizing both
	// spares the early-level growth reallocations on every run.
	return &meshInbox{q: make([]meshBatch, 0, 32), notify: make(chan struct{}, 1)}
}

func (ib *meshInbox) push(b meshBatch) {
	ib.mu.Lock()
	ib.q = append(ib.q, b)
	ib.mu.Unlock()
	select {
	case ib.notify <- struct{}{}:
	default:
	}
}

// drain swaps the queue out against spare, returning the pending batches.
func (ib *meshInbox) drain(spare []meshBatch) []meshBatch {
	ib.mu.Lock()
	out := ib.q
	ib.q = spare[:0]
	ib.mu.Unlock()
	return out
}

// batchPool recycles state slices between senders, receivers and level
// buckets, keeping the steady-state mesh allocation-light.
var batchPool sync.Pool

func getBatch() []verify.PackedState {
	if b, _ := batchPool.Get().([]verify.PackedState); b != nil {
		return b[:0]
	}
	return make([]verify.PackedState, 0, meshBatchTarget)
}

func putBatch(b []verify.PackedState) {
	if cap(b) > 0 {
		batchPool.Put(b[:0])
	}
}

// meshLink is one directed data link to a peer. send takes ownership of
// states and returns the bytes shipped (raw width on loopback, encoded
// batch size on TCP). wantFilter reports whether the sender-side
// recent-state filter pays on this link: probing costs more than the
// receiver-side dedup it saves when no real wire is crossed, so loopback
// links decline it and TCP links (where every state costs bytes) take it.
type meshLink interface {
	send(era, level int, states []verify.PackedState) (int, error)
	wantFilter() bool
	close() error
}

// meshEnv wires a worker into its cluster's data plane: the loopback
// group registry or the TCP host (register own inbox, dial peers).
type meshEnv interface {
	connect(job *Job, inbox *meshInbox, exp *verify.Expander) (links []meshLink, cleanup func(), err error)
}

// getBatch draws a batch slice from the worker's free list, falling back
// to the shared pool — the list is what keeps a node's steady-state batch
// traffic allocation-free without sync.Pool round-trips (whose misses grew
// per-op allocations with the node count; inbox batches absorbed here
// refill the list the sends drain).
func (w *meshWorker) getBatch() []verify.PackedState {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return b
	}
	return getBatch()
}

// putBatch recycles a batch slice into the worker's free list (overflow
// spills to the shared pool).
func (w *meshWorker) putBatch(b []verify.PackedState) {
	if cap(b) == 0 {
		return
	}
	if len(w.free) < meshFreeBatches {
		w.free = append(w.free, b[:0])
		return
	}
	putBatch(b)
}

// ensureLevel grows the level records to hold level l. The initial
// capacity covers typical search depths in one allocation; deeper runs fall
// back to append's doubling. (Holders of a *meshLevel must not call it.)
func (w *meshWorker) ensureLevel(l int) {
	if w.levels == nil {
		w.levels = make([]meshLevel, 0, max(l+1, 64))
	}
	for len(w.levels) <= l {
		w.levels = append(w.levels, meshLevel{})
	}
}

// absorb applies the commit rule to a level-tagged batch, taking
// ownership of the slice: levels ≤ final+1 enter the visited set (fresh
// states join their bucket) and the slice is recycled; later tags defer
// the whole slice uncopied; levels beyond the violation bound are dropped
// (they can never reach the verdict).
func (w *meshWorker) absorb(level int, states []verify.PackedState) {
	if w.haveBound && level > w.boundLevel {
		w.putBatch(states)
		return
	}
	w.ensureLevel(level)
	if level > w.final+1 {
		if w.levels[level].pending == nil && w.sparePending != nil {
			w.levels[level].pending, w.sparePending = w.sparePending, nil
		}
		w.levels[level].pending = append(w.levels[level].pending, states)
		return
	}
	w.visited.Reserve(len(states))
	for _, s := range states {
		w.commit1(level, s, w.exp.Hash(s))
		if w.tooLarge {
			return
		}
	}
	w.putBatch(states)
}

// commit1 commits a single state under the same rule as absorb. h must be
// the expander's hash of s (expansion already computed it for routing, so
// the visited probe never mixes twice).
func (w *meshWorker) commit1(level int, s verify.PackedState, h uint64) {
	if w.tooLarge || (w.haveBound && level > w.boundLevel) {
		return
	}
	w.ensureLevel(level)
	if level > w.final+1 {
		lst := w.levels[level].pending
		if lst == nil && w.sparePending != nil {
			lst, w.sparePending = w.sparePending, nil
		}
		if n := len(lst); n == 0 || len(lst[n-1]) == cap(lst[n-1]) {
			lst = append(lst, w.getBatch())
		}
		lst[len(lst)-1] = append(lst[len(lst)-1], s)
		w.levels[level].pending = lst
		return
	}
	if w.visited.AddHashed(s, h) {
		if w.fresh+1 > w.budget {
			w.tooLarge = true
			return
		}
		if len(w.levels[level].bucket) == 0 && cap(w.levels[level].bucket) == 0 {
			w.levels[level].bucket = w.newBucket(level)
		}
		w.levels[level].bucket = append(w.levels[level].bucket, s)
		w.fresh++
		w.levels[level].fresh++
		if level > w.maxFresh {
			w.maxFresh = level
		}
	}
}

// newBucket sizes a level's frontier bucket from the previous level's
// fresh count, so big levels fill without repeated growth copies. Big
// levels reuse spare buckets retired by recycleBucket when one fits —
// the frontier/spare swap of the local drivers. Best fit, so a small
// level does not squat in a peak-sized buffer the next big level needs.
func (w *meshWorker) newBucket(level int) []verify.PackedState {
	if level > 0 && w.levels[level-1].fresh > meshBatchTarget {
		n := w.levels[level-1].fresh + w.levels[level-1].fresh/4
		best := -1
		for i, sb := range w.spareBuckets {
			if cap(sb) >= n && (best < 0 || cap(sb) < cap(w.spareBuckets[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := w.spareBuckets[best]
			last := len(w.spareBuckets) - 1
			w.spareBuckets[best] = w.spareBuckets[last]
			w.spareBuckets[last] = nil
			w.spareBuckets = w.spareBuckets[:last]
			return b
		}
		// Double the headroom: frontier sizes climb through the rising
		// phase of the search, so a bucket sized to just this level would
		// be too small to recycle into the next one — every big level of
		// every run would then allocate its frontier anew. With the slack,
		// a retired bucket absorbs the next level's growth and the
		// frontier/spare swap holds through the climb.
		return make([]verify.PackedState, 0, 2*n)
	}
	return w.getBatch()
}

// meshSpareBuckets bounds the retired big-bucket stack: the pipelined
// commit rule keeps a few levels in flight, so a retire burst of that
// depth must fit or the next run's climb re-allocates what was dropped.
const meshSpareBuckets = 32

// recycleBucket retires a drained, final-level bucket: batch-sized ones
// feed the free list, bigger ones become the spare the next big level is
// built in, so resident memory tracks the frontier, not the whole
// visited set — and steady-state levels allocate nothing.
func (w *meshWorker) recycleBucket(l int) {
	b := w.levels[l].bucket
	w.levels[l].bucket = w.levels[l].bucket[:0:0]
	w.levels[l].cursor = 0
	if cap(b) > meshBatchTarget {
		if len(w.spareBuckets) < meshSpareBuckets {
			w.spareBuckets = append(w.spareBuckets, b[:0])
			return
		}
		small := 0
		for i := range w.spareBuckets {
			if cap(w.spareBuckets[i]) < cap(w.spareBuckets[small]) {
				small = i
			}
		}
		if cap(b) > cap(w.spareBuckets[small]) {
			w.spareBuckets[small] = b[:0]
		}
		return
	}
	w.putBatch(b)
}

// setFinal raises the node's final-level knowledge, releasing deferred
// commits level by ascending level (the order the commit-rule proof
// relies on: pending level L+1 flushes only once level L is final).
func (w *meshWorker) setFinal(f int) {
	for w.final < f {
		w.final++
		l := w.final + 1
		if l < len(w.levels) && len(w.levels[l].pending) > 0 {
			batches := w.levels[l].pending
			w.levels[l].pending = nil
			for _, b := range batches {
				w.absorb(l, b)
			}
			// A flushed level never refills, but the next level defers the
			// same way: keep the larger list backbone as the shared spare.
			if cap(batches) > cap(w.sparePending) {
				for i := range batches {
					batches[i] = nil
				}
				w.sparePending = batches[:0]
			}
		}
	}
}

// noteViol records a violation found while expanding one of this node's
// bucket states, keeping the (level, state) minimum.
func (w *meshWorker) noteViol(level int, s verify.PackedState, app int) {
	if !w.haveViol || level < w.violLevel || (level == w.violLevel && verify.LessState(s, w.violState)) {
		w.haveViol, w.violLevel, w.violState, w.violApp = true, level, s, app
	}
	w.noteBound(level, s)
}

// noteBound tightens the skip bound (own findings merged with the
// coordinator's broadcast) and drops work that can no longer matter.
func (w *meshWorker) noteBound(level int, s verify.PackedState) {
	if w.haveBound && (w.boundLevel < level || (w.boundLevel == level && verify.LessState(w.boundState, s))) {
		return
	}
	w.haveBound, w.boundLevel, w.boundState = true, level, s
	for l := level + 1; l < len(w.levels); l++ {
		if len(w.levels[l].bucket) > 0 {
			w.levels[l].cursor = len(w.levels[l].bucket)
		}
		for _, b := range w.levels[l].pending {
			w.putBatch(b)
		}
		w.levels[l].pending = nil
	}
}

// drainInbox absorbs everything queued on the node's mesh links. A link
// failure poisons a non-FT run; under fault tolerance it marks the peer
// dead and is reported to the coordinator via the snapshot's LinkDown.
// Era-tagged batches from a past era are dropped (the rollback erased
// their accounting on both ends); batches from a future era are parked
// until this worker's own recovery order arrives, so nothing a recovered
// peer sent ahead of our rollback is ever lost.
func (w *meshWorker) drainInbox() {
	batches := w.inbox.drain(w.spareQ)
	for i := range batches {
		b := &batches[i]
		if b.err != nil {
			if w.ft {
				w.noteLinkDown(b.from)
			} else if w.err == nil {
				w.err = b.err
			}
			continue
		}
		if b.era != w.era {
			if b.era > w.era {
				w.futureQ = append(w.futureQ, *b)
			} else {
				w.putBatch(b.states)
			}
			b.states = nil
			continue
		}
		w.ensureLevel(b.level)
		w.levels[b.level].recv += len(b.states)
		w.absorb(b.level, b.states)
		b.states = nil
	}
	w.spareQ = batches[:0]
}

// noteLinkDown records a dead peer: no further sends are attempted and
// the coordinator learns via the next snapshot's LinkDown report.
func (w *meshWorker) noteLinkDown(peer int) {
	if peer < 0 || peer >= w.n {
		return
	}
	if !w.deadPeers[peer] {
		w.deadPeers[peer] = true
		w.linkDown = append(w.linkDown, peer)
	}
}

// expandable returns the lowest level with unexpanded committed work,
// skipping (and marking drained) levels beyond the violation bound.
func (w *meshWorker) expandable() int {
	for l := range w.levels {
		if w.levels[l].cursor < len(w.levels[l].bucket) {
			if w.haveBound && l > w.boundLevel {
				w.levels[l].cursor = len(w.levels[l].bucket)
				continue
			}
			return l
		}
	}
	return -1
}

// expandChunk expands up to n states from the lowest available bucket,
// routing foreign successors over the mesh and committing self-owned ones
// locally. Returns false when no work was available.
func (w *meshWorker) expandChunk(n int) bool {
	l := w.expandable()
	if l < 0 {
		return false
	}
	if w.outLevel != l+1 {
		w.flushOut()
		w.outLevel = l + 1
		// Pre-size the visited partition for the coming level from the
		// fresh-state trajectory (the local drivers' levelReserve
		// heuristic), so commits inside a level rarely rehash.
		est := w.levels[l].fresh
		if l > 0 && w.levels[l-1].fresh > 0 {
			est = w.levels[l].fresh * w.levels[l].fresh / w.levels[l-1].fresh
			if max := 8 * w.levels[l].fresh; est > max {
				est = max
			}
		}
		w.visited.Reserve(est)
	}
	w.expandSerial(l, n)
	if w.levels[l].cursor == len(w.levels[l].bucket) && len(w.levels[l].bucket) > 0 && l <= w.final {
		// The bucket is drained and — level final — can never refill. With
		// checkpointing on, the bucket is the segment payload: keep it until
		// the sweep has persisted the level (maybeCheckpoint recycles it).
		if !w.ckptOn || l <= w.ckptLevel {
			w.recycleBucket(l)
		}
	}
	return true
}

// expandSerial is the single-goroutine expansion loop: hash each
// successor once during the packing sweep, then reuse the hash for shard
// routing, the send filter and the visited probe.
func (w *meshWorker) expandSerial(l, n int) {
	for i := 0; i < n && w.levels[l].cursor < len(w.levels[l].bucket); i++ {
		if w.tooLarge {
			return
		}
		s := w.levels[l].bucket[w.levels[l].cursor]
		w.levels[l].cursor++
		if w.haveBound && l == w.boundLevel && verify.LessState(w.boundState, s) {
			continue
		}
		succ, violApp := w.exp.SuccessorsHashedInto(s, w.esc, w.hsucc[:0])
		w.hsucc = succ[:0]
		if violApp >= 0 {
			w.noteViol(l, s, violApp)
			continue
		}
		w.transitions += len(succ)
		if w.ckptOn {
			w.ftTransAdd(l, w.exp.Hash(s), len(succ))
		}
		if w.haveBound && l+1 > w.boundLevel {
			continue // successors beyond the verdict level
		}
		for _, ns := range succ {
			if dst := int(w.owners[ns.H>>58]); dst != w.id {
				if w.filters[dst].slots != nil && w.filters[dst].seen(ns.S, ns.H) {
					w.filtered++
				} else {
					w.outBuf[dst] = append(w.outBuf[dst], ns.S)
					if len(w.outBuf[dst]) >= meshBatchTarget {
						w.flushDest(dst)
					}
				}
			} else {
				w.commit1(l+1, ns.S, ns.H)
			}
		}
	}
}

// flushDest ships one destination's buffered successors as a level-tagged
// batch, updating the epoch and wire accounting. Under fault tolerance a
// failed (or known-dead) destination drops the batch and marks the link
// down instead of poisoning the run: the coordinator's recovery rolls
// every counter back past the loss, so an uncounted drop can never skew
// the sent/recv sums that drive termination.
func (w *meshWorker) flushDest(d int) {
	states := w.outBuf[d]
	if len(states) == 0 {
		return
	}
	w.outBuf[d] = w.getBatch()
	if w.ft && w.deadPeers[d] {
		w.putBatch(states)
		return
	}
	n, level := len(states), w.outLevel
	w.ensureLevel(level)
	bytes, err := w.links[d].send(w.era, level, states)
	if err != nil {
		if w.ft {
			w.noteLinkDown(d)
			return
		}
		if w.err == nil {
			w.err = fmt.Errorf("mesh link to node %d: %v", d, err)
		}
	}
	w.levels[level].sent += n
	w.routed += n
	w.linkStates[d] += n
	w.wireBytes += bytes
	w.linkBytes[d] += bytes
}

// flushOut ships every buffered destination batch.
func (w *meshWorker) flushOut() {
	if w.outLevel < 0 {
		return
	}
	for d := range w.outBuf {
		if d != w.id {
			w.flushDest(d)
		}
	}
}
