package dverify

import (
	"fmt"
	"sync"

	"tightcps/internal/verify"
)

// meshBatch is one level-tagged batch of states crossing a mesh link — flat
// words, Expander.StateWords() per state, the form the kernel emits and the
// wire ships — or a link failure surfaced into the owner's inbox. era tags the
// sender's recovery era (always 0 outside fault-tolerant runs): a receiver
// in another era drops the batch. No worker expands in a new era before
// every survivor has rolled back into it, so that batch is always an old
// one, its accounting erased on both ends.
type meshBatch struct {
	from   int
	level  int
	era    int
	states []uint64
	err    error
}

// meshInbox is a worker's unbounded, mutex-guarded receive queue. Senders
// never block (so two workers flooding each other cannot deadlock) and
// nudge the notify channel so an owner waiting for its level's states wakes.
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
// batch size on TCP).
type meshLink interface {
	send(era, level int, states []uint64) (int, error)
	close() error
}

// meshEnv wires a worker into its cluster's data plane: the loopback
// group registry or the TCP host. connect registers the worker's inbox and
// opens its links; leave releases the registration of a connected worker.
type meshEnv interface {
	connect(job *Job, inbox *meshInbox, exp *verify.Expander) ([]meshLink, error)
	leave(job *Job, inbox *meshInbox)
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

// absorb commits a level-tagged batch — a peer's, or a chunk's own
// successors — taking ownership of the slice: the states enter the visited
// set through the set's chunked insert, the local drivers' insert, and the
// fresh ones join their level's bucket. drainInbox decides when a peer's
// batch may come here. A batch that takes the partition past its budget
// stops the worker.
func (w *meshWorker) absorb(level int, states []uint64) {
	if w.tooLarge {
		w.putBatch(states)
		return
	}
	w.ensureLevel(level)
	lv := &w.levels[level]
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

// retire closes the worker's level once it is expanded: the level's
// membership and its transitions are both final, so with checkpointing on
// its segments are written now, and its bucket — which nothing reads again
// — is recycled.
func (w *meshWorker) retire() {
	l := w.level
	if w.ckptOn && w.ckptLevel < l {
		if err := w.writeLevel(l); err != nil {
			w.err = fmt.Errorf("checkpoint level %d: %v", l, err)
			return
		}
		w.ckptLevel = l
	}
	if cap(w.levels[l].bucket) > 0 {
		w.recycleBucket(l)
	}
}

// recycleBucket takes a bucket out of its level: batch-sized ones feed
// the free list, a bigger one becomes a spare frontier buffer. A round has
// two big levels in flight — the one being expanded and the one it fills —
// so two spares, the smaller (or the empty slot) first, are what a worker
// needs between levels and all it retains between jobs. A third replaces
// the smaller or is left to the collector.
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

// noteViol records a violation found while expanding one of this node's
// states of the level, keeping the minimum state.
func (w *meshWorker) noteViol(s verify.PackedState, app int) {
	if !w.haveViol || verify.LessState(s, w.violState) {
		w.haveViol, w.violState, w.violApp = true, s, app
	}
}

// drainInbox absorbs everything queued on the node's mesh links under the
// one ordering rule: a peer's batch commits in the round of its level. A
// batch tagged level+1 waits in ahead until the worker moves on to that
// level. Until the worker holds the expect states of its own level, the same
// state may still arrive tagged level, its true depth. After that the wait
// is not needed for exactness, but it still pays: every worker then absorbs
// all of its peers' level at the start of its round, so the barrier does not
// wait on the one that finished first and was left the others' tail
// (committing at once read about 10 % slower on S1 over two loopback
// nodes). A link failure poisons
// a non-FT run; under fault tolerance it marks the peer dead and is reported
// to the coordinator via the snapshot's LinkDown. A batch of another era is
// dropped: a rollback since has erased its accounting on both ends.
func (w *meshWorker) drainInbox() {
	batches := w.inbox.drain(w.spareQ)
	for i := range batches {
		b := &batches[i]
		switch {
		case b.err != nil:
			if w.ft {
				w.noteLinkDown(b.from)
			} else if w.err == nil {
				w.err = b.err
			}
		case b.era != w.era:
			w.putBatch(b.states)
		case b.level == w.level:
			w.got += len(b.states) / w.sw
			w.absorb(b.level, b.states)
		case b.level == w.level+1:
			w.ahead = append(w.ahead, b.states)
		default:
			w.putBatch(b.states)
			if w.err == nil {
				w.err = fmt.Errorf("mesh batch from node %d tagged level %d at level %d", b.from, b.level, w.level)
			}
		}
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

// expandChunk expands up to n states of the level's bucket, routing foreign
// successors over the mesh and committing this node's own. Returns false
// once the bucket is exhausted.
func (w *meshWorker) expandChunk(n int) bool {
	w.ensureLevel(w.level)
	lv := &w.levels[w.level]
	if lv.cursor == len(lv.bucket) {
		return false
	}
	if lv.cursor == 0 {
		// Pre-size the visited partition for the coming level from the
		// fresh-state trajectory, as the local drivers do, so commits inside
		// a level rarely rehash.
		prev := 0
		if w.level > 0 {
			prev = w.levels[w.level-1].fresh
		}
		w.visited.Reserve(verify.LevelReserve(lv.fresh, prev))
	}
	w.expandSerial(n)
	w.flushDest(w.id) // the chunk's own successors: one more batch to absorb
	return true
}

// expandSerial is the single-goroutine expansion loop: every successor
// arrives from the kernel as words with its hash, mixed once, and the hash
// picks the owner. A successor is appended to its owner's buffer — this
// node's own included, which expandChunk hands to absorb when the chunk is
// done. Once the level holds a violation it decides the verdict, as in the
// local lanes: nothing more is routed, and the rest of the bucket is swept
// for a smaller violator.
func (w *meshWorker) expandSerial(n int) {
	sw, l := w.sw, w.level
	for i := 0; i < n && w.levels[l].cursor < len(w.levels[l].bucket) && !w.tooLarge; i++ {
		lv := &w.levels[l]
		s := lv.bucket[lv.cursor : lv.cursor+sw]
		lv.cursor += sw
		if w.haveViol && verify.LessState(w.violState, packed(s)) {
			continue // cannot lower the minimum
		}
		var violApp int
		w.succ, w.hashes, violApp = w.exp.ExpandWords(s, w.esc, w.succ[:0], w.hashes[:0])
		if violApp >= 0 {
			w.noteViol(packed(s), violApp)
			continue
		}
		w.transitions += len(w.hashes)
		if w.ckptOn {
			w.ftTransAdd(l, w.exp.HashWords(s), len(w.hashes))
		}
		if w.haveViol {
			continue
		}
		for j, h := range w.hashes {
			dst := int(w.owners[h>>58])
			w.outBuf[dst] = append(w.outBuf[dst], w.succ[j*sw:j*sw+sw]...)
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

// flushDest ships one destination's buffered successors as a batch tagged
// level+1, counting it in the round's SentTo and the wire totals; this
// node's own go straight to absorb, across no link and into no counter.
// Under fault tolerance a failed (or known-dead) destination drops the
// batch uncounted and marks the link down instead of poisoning the run: the
// coordinator's recovery rolls every worker back past the loss, so no peer
// is left expecting it.
func (w *meshWorker) flushDest(d int) {
	states := w.outBuf[d]
	if len(states) == 0 {
		return
	}
	w.outBuf[d] = w.getBatch()
	level := w.level + 1
	if d == w.id {
		w.absorb(level, states)
		return
	}
	if w.ft && w.deadPeers[d] {
		w.putBatch(states)
		return
	}
	n := len(states) / w.sw
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
	w.sentTo[d] += n
	w.routed += n
	w.linkStates[d] += n
	w.wireBytes += bytes
	w.linkBytes[d] += bytes
}

// flushOut ships every buffered destination batch.
func (w *meshWorker) flushOut() {
	for d := range w.outBuf {
		w.flushDest(d)
	}
}
