package dverify

import (
	"fmt"
	"sync"

	"tightcps/internal/verify"
)

// meshBatch is one level-tagged batch of states crossing a mesh link — flat
// words, Expander.StateWords() per state, the form the kernel emits and the
// wire ships — or a link failure surfaced into the owner's inbox. era tags the
// sender's recovery era (always 0 outside fault-tolerant runs): a
// receiver in a newer era drops the batch — the rollback already erased
// its accounting on both ends — and one in an older era parks it until
// its own recovery order arrives.
type meshBatch struct {
	from   int
	level  int
	era    int
	states []uint64
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

// batchPool recycles word slices between senders, receivers and level
// buckets, keeping the steady-state mesh allocation-light.
var batchPool sync.Pool

func getBatch() []uint64 {
	if b, _ := batchPool.Get().([]uint64); b != nil {
		return b[:0]
	}
	return make([]uint64, 0, meshBatchTarget)
}

func putBatch(b []uint64) {
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
	send(era, level int, states []uint64) (int, error)
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
func (w *meshWorker) getBatch() []uint64 {
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
func (w *meshWorker) putBatch(b []uint64) {
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

// absorb applies the commit rule to a level-tagged batch — a peer's, or a
// chunk's own successors — taking ownership of the slice: levels ≤ final+1
// enter the visited set through the set's chunked insert, the local
// drivers' insert, and the fresh states join their bucket; later tags defer
// the slice (a short one is folded into the level's last deferred batch, so
// a chunk's worth of own successors does not hold a whole batch); levels
// beyond the violation bound are dropped (they can never reach the verdict).
// A batch that takes the partition past its budget stops the worker.
func (w *meshWorker) absorb(level int, states []uint64) {
	if w.tooLarge || (w.haveBound && level > w.boundLevel) {
		w.putBatch(states)
		return
	}
	w.ensureLevel(level)
	lv := &w.levels[level]
	if level > w.final+1 {
		if n := len(lv.pending); n > 0 && len(lv.pending[n-1])+len(states) <= cap(lv.pending[n-1]) {
			lv.pending[n-1] = append(lv.pending[n-1], states...)
			w.putBatch(states)
			return
		}
		if lv.pending == nil && w.sparePending != nil {
			lv.pending, w.sparePending = w.sparePending, nil
		}
		lv.pending = append(lv.pending, states)
		return
	}
	w.freshIdx = w.visited.AddWords(states, w.freshIdx[:0])
	if n := len(w.freshIdx); n > 0 {
		if w.fresh+n > w.budget {
			w.tooLarge = true
			w.putBatch(states)
			return
		}
		if cap(lv.bucket) == 0 {
			lv.bucket = w.newBucket(level)
		}
		for _, i := range w.freshIdx {
			lv.bucket = append(lv.bucket, states[int(i)*w.sw:int(i)*w.sw+w.sw]...)
		}
		w.fresh += n
		lv.fresh += n
		w.maxFresh = max(w.maxFresh, level)
	}
	w.putBatch(states)
}

// newBucket picks the buffer a level's frontier is built in: a batch for a
// small level, for a big one — going by the level before it — the larger of
// the two frontier buffers recycleBucket keeps, which is the local drivers'
// frontier/next swap. A buffer too small for its level grows by append, so
// the pair a standing worker holds settles at the widest level it has seen.
func (w *meshWorker) newBucket(level int) []uint64 {
	if sp := &w.spareBuckets; cap(sp[1]) > 0 && level > 0 && w.levels[level-1].fresh*w.sw > meshBatchTarget {
		b := sp[1]
		sp[0], sp[1] = nil, sp[0]
		return b
	}
	return w.getBatch()
}

// retire recycles level l's bucket once nothing can read it again: drained,
// its level final — so it can never refill — and, with checkpointing on,
// where the bucket is the segment payload, persisted. Whichever comes last
// calls it: the chunk that drains the bucket, setFinal or the sweep.
func (w *meshWorker) retire(l int) {
	lv := &w.levels[l]
	if cap(lv.bucket) > 0 && lv.cursor == len(lv.bucket) && l <= w.final && (!w.ckptOn || l <= w.ckptLevel) {
		w.recycleBucket(l)
	}
}

// recycleBucket takes a bucket out of its level: batch-sized ones feed
// the free list, a bigger one becomes a spare frontier buffer. The commit
// rule has two big levels in flight — the one being expanded and the one it
// fills — so two spares, the smaller (or the empty slot) first, are what a
// worker needs between levels and all it retains between jobs. A third
// (checkpointing holds levels back until the sweep) replaces the smaller
// or is left to the collector.
func (w *meshWorker) recycleBucket(l int) {
	b := w.levels[l].bucket[:0]
	w.levels[l].bucket, w.levels[l].cursor = nil, 0
	if cap(b) <= meshBatchTarget {
		w.putBatch(b)
		return
	}
	sp := &w.spareBuckets
	if cap(b) > cap(sp[0]) {
		sp[0] = b
	}
	if cap(sp[0]) > cap(sp[1]) {
		sp[0], sp[1] = sp[1], sp[0]
	}
}

// setFinal raises the node's final-level knowledge, releasing deferred
// commits level by ascending level (the order the commit-rule proof
// relies on: pending level L+1 flushes only once level L is final).
func (w *meshWorker) setFinal(f int) {
	for w.final < f {
		w.final++
		if w.final < len(w.levels) {
			w.retire(w.final)
		}
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
		w.levels[b.level].recv += len(b.states) / w.sw
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
		// fresh-state trajectory, as the local drivers do, so commits inside
		// a level rarely rehash.
		prev := 0
		if l > 0 {
			prev = w.levels[l-1].fresh
		}
		w.visited.Reserve(verify.LevelReserve(w.levels[l].fresh, prev))
	}
	w.expandSerial(l, n)
	w.flushDest(w.id) // the chunk's own successors: one more batch to absorb
	w.retire(l)
	return true
}

// expandSerial is the single-goroutine expansion loop: every successor
// arrives from the kernel as words with its hash, mixed once, and the hash
// picks the owner and probes the send filter. A successor is appended to its
// owner's buffer — this node's own included, which expandChunk hands to
// absorb when the chunk is done.
func (w *meshWorker) expandSerial(l, n int) {
	sw := w.sw
	for i := 0; i < n && w.levels[l].cursor < len(w.levels[l].bucket) && !w.tooLarge; i++ {
		lv := &w.levels[l]
		s := lv.bucket[lv.cursor : lv.cursor+sw]
		lv.cursor += sw
		if w.haveBound && l == w.boundLevel && verify.LessState(w.boundState, packed(s)) {
			continue
		}
		var violApp int
		w.succ, w.hashes, violApp = w.exp.ExpandWords(s, w.esc, w.succ[:0], w.hashes[:0])
		if violApp >= 0 {
			w.noteViol(l, packed(s), violApp)
			continue
		}
		w.transitions += len(w.hashes)
		if w.ckptOn {
			w.ftTransAdd(l, w.exp.HashWords(s), len(w.hashes))
		}
		if w.haveBound && l+1 > w.boundLevel {
			continue // successors beyond the verdict level
		}
		for j, h := range w.hashes {
			ns := w.succ[j*sw : j*sw+sw]
			dst := int(w.owners[h>>58])
			if w.filters[dst].slots != nil && w.filters[dst].seen(ns, h) {
				w.filtered++
				continue
			}
			w.outBuf[dst] = append(w.outBuf[dst], ns...)
			if len(w.outBuf[dst]) >= meshBatchTarget {
				w.flushDest(dst)
			}
		}
	}
}

// packed lifts one state's words into the control plane's PackedState.
func packed(s []uint64) (p verify.PackedState) {
	copy(p[:], s)
	return p
}

// flushDest ships one destination's buffered successors as a level-tagged
// batch, updating the epoch and wire accounting; this node's own go straight
// to absorb, across no link and into no counter. Under fault tolerance a
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
	if d == w.id {
		w.absorb(w.outLevel, states)
		return
	}
	if w.ft && w.deadPeers[d] {
		w.putBatch(states)
		return
	}
	n, level := len(states)/w.sw, w.outLevel
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
		w.flushDest(d)
	}
}
