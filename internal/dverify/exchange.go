package dverify

import (
	"fmt"
	"sync"

	"tightcps/internal/verify"
)

// meshBatch is one level-tagged batch of states crossing a mesh link — flat
// words, one per state, the form the kernel emits and the wire ships — or a link failure surfaced into the owner's inbox. era tags the
// sender's recovery era (always 0 outside fault-tolerant runs): a receiver
// in another era drops the batch. No worker expands in a new era before
// every survivor has reset into it, so that batch is always an old
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
	leave(job *Job)
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

// drainInbox absorbs everything queued on the node's mesh links under the
// one ordering rule: a peer's batch commits in the round of its level. A
// batch tagged level+1 waits in ahead until the worker moves on to that
// level. Until the worker holds the expect states of its own level, the same
// state may still arrive tagged level, its true depth. After that the wait
// is not needed for exactness, but it still pays: every worker then absorbs
// all of its peers' level at the start of its round, so the barrier does not
// wait on the one that finished first and was left the others' tail
// (committing at once read about 10 % slower on S1 over two loopback
// nodes). A link failure marks the peer dead (noteLinkDown). A batch of
// another era is dropped: a recovery since has erased its accounting on
// both ends.
func (w *meshWorker) drainInbox() {
	batches := w.inbox.drain(w.spareQ)
	for i := range batches {
		b := &batches[i]
		switch {
		case b.err != nil:
			w.noteLinkDown(b.from, b.err)
		case b.era != w.era:
			w.putBatch(b.states)
		case b.level == w.level:
			w.got += len(b.states)
			w.in = append(w.in, b.states)
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
	// The level's batches are absorbed together: the lanes route every
	// state to the lane that owns it and insert it there, and the fresh
	// ones join the level.
	if len(w.in) > 0 {
		w.lanes.Absorb(w.in)
		for i, b := range w.in {
			w.putBatch(b)
			w.in[i] = nil
		}
		w.in = w.in[:0]
	}
}

// noteLinkDown records a dead peer and why: no further sends are attempted
// and the coordinator learns via the next snapshot's LinkDown report. The
// worker itself carries on; the coordinator decides what the death means.
func (w *meshWorker) noteLinkDown(peer int, cause error) {
	if peer < 0 || peer >= w.n {
		return
	}
	if !w.deadPeers[peer] {
		w.deadPeers[peer] = true
		w.linkDown = append(w.linkDown, DeadLink{Peer: peer, Cause: cause.Error()})
	}
}

// ship sends one destination's successors, handed over by the lanes after
// a round, as a batch tagged level+1, counting it in the round's SentTo and
// the wire totals, and returns the lanes an empty buffer for the next
// round. A failed (or known-dead) destination drops the batch uncounted
// and marks the link down: the coordinator either ends the run or restarts
// it on the survivors, so no peer is left expecting it.
func (w *meshWorker) ship(d int, states []uint64) []uint64 {
	if w.deadPeers[d] {
		return states[:0]
	}
	n := len(states)
	bytes, err := w.links[d].send(w.era, w.level+1, states)
	if err != nil {
		w.noteLinkDown(d, fmt.Errorf("mesh link from node %d: %v", w.id, err))
		return w.getBatch()
	}
	w.sentTo[d] += n
	w.routed += n
	w.linkStates[d] += n
	w.wireBytes += bytes
	w.linkBytes[d] += bytes
	return w.getBatch()
}
