package dverify

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// The worker mesh: the data plane of the distributed search without the
// coordinator in it. Workers hold one direct link per peer (channels for
// loopback clusters, dial-out TCP for verifyd fleets) and route successor
// batches straight to their shard owners; the coordinator is a thin
// control plane that polls counter snapshots, publishes level milestones
// and detects termination by epoch accounting (cluster-wide states sent
// vs absorbed per level).
//
// Levels are pipelined, not barriered: a worker expands level L+1 states
// as they arrive while peers are still draining level L. Exactness — the
// same verdict, exhaustive counts, depth and minimal violator as the
// local searches — is preserved by one commit rule: a state tagged with
// level t may enter the visited set only once every level ≤ t−1 is
// *final* (all states committed and all tagged-≤(t−1) messages absorbed).
// Under that rule a freshly committed state's tag always equals its true
// BFS level (a shorter path would mean the state was already committed
// when its earlier level was finalized), so per-level counts, Depth and
// the first-violating-level minimum-violator tie-break are bit-identical
// to the level-synchronous searches. Arrivals ahead of the rule are
// deferred, bounding the pipeline to one level of lookahead — the price
// of exactness, and exactly the overlap a barrier forbids.
//
// The coordinator advances two milestones from each epoch's snapshots:
//
//	final(L): done(L−1) ∧ Σ sent[L] == Σ recv[L]   (membership final)
//	done(L):  final(L) ∧ every worker drained ≤ L  (fully expanded)
//
// Both are evaluated over cumulative, monotone counters from one poll
// round, so a lagging message can only delay a milestone, never fake
// one. Termination: a violation is final once done reaches its level; a
// schedulable run ends when every worker is idle and the sent/recv sums
// match at every level (Mattern-style quiescence — any in-flight state
// leaves the sums unequal).

// meshChunk is how many states a worker expands between inbox drains and
// control checks; meshPollBudget caps how long a busy worker holds a poll
// before answering with an interim snapshot; meshIdleWait caps how long an
// idle worker waits for data before answering an unchanged snapshot;
// meshBatchTarget is the flush threshold of per-destination send buffers;
// meshFreeBatches caps the worker-local batch free list.
const (
	meshChunk       = 1024
	meshPollBudget  = 25 * time.Millisecond
	meshIdleWait    = 20 * time.Millisecond
	meshBatchTarget = 4096
	meshFreeBatches = 512
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

// meshWorker is one node of the mesh search, and one goroutine: the
// transport's serve loop calls Init/Poll, and all search, routing, milestone
// and accounting state is touched only from those calls (peer readers touch
// nothing but the inbox). A distributed run's parallelism is its node count.
//
// Its state is split by lifetime, and each part is replaced as a whole —
// never cleared field by field — so a field added to a part is zero at the
// start of that lifetime by construction: meshStanding survives across jobs
// (memory only, no facts about any run), meshSession lives for one job,
// meshEra for one stretch of search between rollbacks (a run without a
// recovery has one era).
type meshWorker struct {
	meshStanding
	meshSession
	meshEra
}

// meshStanding is what a compatible follow-up job inherits: the expander
// and its scratch, the visited partition's table, and recycled memory. None
// of it says anything about a run — resetEra empties what can hold state.
type meshStanding struct {
	exp     *verify.Expander
	words   int
	visited *verify.StateSet
	esc     *verify.ExpandScratch
	hsucc   []verify.HashedState
	spareQ  []meshBatch
	filters []sendFilter // tables; which are in use is decided per session
	outBuf  [][]verify.PackedState
	// Per-destination wire counters of the session, zeroed when one starts.
	linkStates []int
	linkBytes  []int

	// Worker-local batch recycling: free is the slice free list fed by
	// absorbed inbox batches and drained buckets, spareBuckets the big
	// frontier buckets retired — the next big levels are built in them, the
	// way the local drivers swap frontier and spare instead of allocating
	// per level. It is a small stack, not a single slot: the commit rule
	// keeps a window of levels live at once, and they retire in bursts.
	free         [][]verify.PackedState
	spareBuckets [][]verify.PackedState
	sparePending [][]verify.PackedState // retired deferral-list backbone

	waitT *time.Timer
	// Snapshot responses are double-buffered: the coordinator reads round
	// k's response while the worker builds round k+1 into the other
	// buffer, so the per-poll counter copies reuse their backing arrays
	// instead of allocating on every epoch. initResp backs the Init reply
	// the same way: by the time a follow-up job re-Inits the worker, the
	// previous reply is long consumed.
	snapResp [2]Response
	snapFlip int
	initResp Response
}

// meshSession is one job on one cluster: placement, budget, the data plane
// and what is true of the whole run whatever gets rolled back — the wire
// history (traffic that happened) and the violation knowledge (a found
// violation is a property of the state space, not of a dead worker).
type meshSession struct {
	id, n  int
	job    *Job // what the worker was built for (reuse compatibility)
	budget int

	inbox   *meshInbox
	links   []meshLink
	cleanup func()

	routed    int
	filtered  int
	wireBytes int

	// Own minimum violation (reported) and the skip bound (own merged
	// with the coordinator's broadcast; never reported back).
	haveViol   bool
	violLevel  int
	violState  verify.PackedState
	violApp    int
	haveBound  bool
	boundLevel int
	boundState verify.PackedState

	// Fault tolerance (ft.go): ft reports link failures instead of
	// poisoning the run, ckptOn persists finished levels under ckptDir, and
	// futureQ parks batches from peers already in a newer era until this
	// worker's own recovery order arrives.
	ft      bool
	ckptOn  bool
	ckptDir string // per-session segment directory
	futureQ []meshBatch

	finished bool
}

// meshLevel is the per-level search record. bucket[:cursor] is expanded;
// pending holds batches deferred by the commit rule (tag > final+1) — whole
// slices, ownership transferred, so deferral never copies; fresh counts the
// level's commits (set pre-sizing, trace), sent and recv the states shipped
// to and drained from mesh links with this tag.
type meshLevel struct {
	bucket     []verify.PackedState
	cursor     int
	pending    [][]verify.PackedState
	fresh      int
	sent, recv int
}

// meshEra is everything a rollback erases: the search frontier and its
// counters, the milestone knowledge, and the routing view. owners is the
// routing table (default contiguous, rewritten by Recover); ckptLevel the
// highest level fully persisted as checkpoint segments (-1 = none); ftTrans
// attributes transitions per (level, shard) so segments carry exact counts;
// deadPeers suppresses sends to nodes known dead; linkDown is the cumulative
// dead-peer report for the coordinator.
type meshEra struct {
	levels   []meshLevel
	final    int // highest level known final (coordinator-published)
	outLevel int // tag of the buffered sends (expand level + 1; -1 = none)

	fresh       int
	transitions int
	maxFresh    int
	tooLarge    bool
	err         error

	era       int
	owners    [numShards]uint8
	ckptLevel int
	ftTrans   [][numShards]int64
	deadPeers []bool
	linkDown  []int

	lastSnap meshDigest
	haveSnap bool
}

// meshDigest summarizes a snapshot for the long-poll "news" check: a
// worker answers an outstanding poll as soon as its digest moves.
type meshDigest struct {
	fresh, transitions, routed, filtered int
	sent, recv, pendingN                 int
	drained, maxFresh                    int
	idle, tooLarge, haveErr, haveViol    bool
	violLevel                            int
	violState                            verify.PackedState
}

// newMeshWorker builds a node for a mesh job and wires its data links
// through env — the only build path. A previous worker whose job is
// compatible donates its standing part (expander, visited table — the
// dominant per-run allocation — and batch memory): a standing cluster
// re-verifying a slot, a daemon serving successive coordinators or the
// bench loop, does not restart its steady state from zero. The donor's
// links are already down (Init goes through handler.reset) and its
// registration is gone; what its run left parked — a violating or
// over-budget run stops with frontier, deferrals and sends all in place —
// is recycled by the same resets that start every worker.
func newMeshWorker(job *Job, env meshEnv, prev *meshWorker) (*meshWorker, *Response, error) {
	if job.Proto != protoVersion {
		return nil, nil, fmt.Errorf("dverify: coordinator speaks protocol %d, this worker speaks %d (rebuild the older side)",
			job.Proto, protoVersion)
	}
	n := job.NumNodes
	if n < 1 || job.NodeID < 0 || job.NodeID >= n {
		return nil, nil, fmt.Errorf("dverify: node %d of %d is not a valid placement", job.NodeID, n)
	}
	w := prev
	if w != nil && jobsCompatible(w.job, job) {
		w.shutdown() // idempotent: handler.reset has already run it
	} else {
		profs := make([]*switching.Profile, len(job.Profiles))
		for i := range job.Profiles {
			profs[i] = &job.Profiles[i]
		}
		exp, err := verify.NewExpander(profs, verify.Config{
			MaxDisturbances:   job.MaxDisturbances,
			Policy:            job.Policy,
			NondetTies:        job.NondetTies,
			SymmetryReduction: job.SymmetryReduction,
		})
		if err != nil {
			return nil, nil, err
		}
		w = &meshWorker{meshStanding: meshStanding{
			exp:     exp,
			words:   exp.StateWords(),
			visited: exp.NewSet(1 << 16),
			esc:     exp.NewScratch(),
			spareQ:  make([]meshBatch, 0, 32),
			filters: make([]sendFilter, n),
			outBuf:  make([][]verify.PackedState, n),

			linkStates: make([]int, n),
			linkBytes:  make([]int, n),
		}}
	}

	// The session. Parked future-era batches feed the free list; the inbox
	// is new, not the old one swept: a peer reader of the previous session
	// may still hold it and push a late frame — or the EOF of a link its
	// sender has already closed — after any sweep.
	for _, b := range w.futureQ {
		w.putBatch(b.states)
	}
	clear(w.linkStates)
	clear(w.linkBytes)
	w.meshSession = meshSession{
		id:      job.NodeID,
		n:       n,
		job:     job,
		budget:  job.MaxStates,
		inbox:   newMeshInbox(),
		violApp: -1,
		ft:      job.FT,
		ckptOn:  job.FT && job.CheckpointDir != "",
		futureQ: w.futureQ[:0],
	}
	if w.budget <= 0 {
		w.budget = defaultMaxStates
	}
	if w.ckptOn {
		w.ckptDir = ckptSessionDir(job.CheckpointDir, job.Session)
	}
	w.resetEra(job.Era, job.Owners, nil)

	links, cleanup, err := env.connect(job, w.inbox, w.exp)
	if err != nil {
		return nil, nil, err
	}
	w.links, w.cleanup = links, cleanup
	for d, l := range links {
		switch want := d != w.id && l != nil && l.wantFilter(); {
		case !want:
			w.filters[d] = sendFilter{}
		case w.filters[d].slots == nil:
			w.filters[d] = newSendFilter()
		}
	}
	// A fresh run (Era 0) seeds the initial state on its owner; a
	// replacement worker joining a recovered run restores its owned shards
	// from checkpoint segments instead.
	if job.FT && job.Era > 0 {
		if err := w.restore(job.Cut); err != nil {
			w.shutdown()
			return nil, nil, err
		}
	} else {
		w.seed()
	}
	w.initResp = Response{Proto: protoVersion, ViolApp: -1, Fresh: w.fresh}
	return w, &w.initResp, nil
}

// resetEra is the one place a worker's search state is emptied — at Init
// and on every recovery order. It recycles the outgoing era's memory into
// the standing free lists, empties what standing memory can hold state (the
// visited table, the send buffers, and the send filters, whose
// justification — "the receiver has this state in its visited set" — a
// rollback breaks), then starts the new era from a fresh value: only what
// is named below differs from zero. dead is the complete current dead set —
// rebuilt, not accumulated, so a replacement adopted into a dead slot
// receives traffic again — and the cumulative LinkDown report restarts
// empty: the coordinator already acted on everything reported before.
func (w *meshWorker) resetEra(era int, owners []uint8, dead []int) {
	for l := range w.levels {
		if cap(w.levels[l].bucket) > 0 {
			w.recycleBucket(l)
		}
		for _, b := range w.levels[l].pending {
			w.putBatch(b)
		}
	}
	for d := range w.outBuf {
		if w.outBuf[d] != nil {
			w.outBuf[d] = w.outBuf[d][:0]
		} else if d != w.id {
			w.outBuf[d] = w.getBatch()
		}
		clear(w.filters[d].slots)
	}
	w.visited.Reset()
	if w.deadPeers == nil {
		w.deadPeers = make([]bool, w.n)
	}
	clear(w.deadPeers)
	for _, d := range dead {
		if d >= 0 && d < w.n {
			w.deadPeers[d] = true
		}
	}
	w.meshEra = meshEra{
		levels:    w.levels[:0],
		outLevel:  -1,
		era:       era,
		owners:    ownerTable(owners, w.n),
		ckptLevel: -1,
		ftTrans:   w.ftTrans[:0],
		deadPeers: w.deadPeers,
		linkDown:  w.linkDown[:0],
	}
}

// seed commits the initial state on its owner: the start of a run, and of
// a recovery with no usable checkpoint.
func (w *meshWorker) seed() {
	init := w.exp.Initial()
	if h := w.exp.Hash(init); int(w.owners[h>>58]) == w.id {
		w.commit1(0, init, h)
	}
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

// drained computes the highest level L with every bucket ≤ L expanded,
// capped at final+1 (deeper buckets may still be refilled by peers).
func (w *meshWorker) drained() int {
	d := -1
	for l := 0; l <= w.final+1; l++ {
		if l < len(w.levels) && w.levels[l].cursor < len(w.levels[l].bucket) {
			if !(w.haveBound && l > w.boundLevel) {
				break
			}
		}
		d = l
	}
	return d
}

// idle reports quiescence under the node's current milestone knowledge.
func (w *meshWorker) idle() bool {
	if w.expandable() >= 0 || len(w.futureQ) > 0 {
		return false
	}
	for d, b := range w.outBuf {
		if d != w.id && len(b) > 0 {
			return false
		}
	}
	for l := range w.levels {
		if len(w.levels[l].pending) > 0 && !(w.haveBound && l > w.boundLevel) {
			return false
		}
	}
	w.inbox.mu.Lock()
	empty := len(w.inbox.q) == 0
	w.inbox.mu.Unlock()
	return empty
}

// digest captures the snapshot fields the long-poll news check compares.
func (w *meshWorker) digest() meshDigest {
	pendingN, sent, recv := 0, 0, 0
	for l := range w.levels {
		for _, b := range w.levels[l].pending {
			pendingN += len(b)
		}
		sent += w.levels[l].sent
		recv += w.levels[l].recv
	}
	return meshDigest{
		fresh: w.fresh, transitions: w.transitions, routed: w.routed, filtered: w.filtered,
		sent: sent, recv: recv, pendingN: pendingN,
		drained: w.drained(), maxFresh: w.maxFresh,
		idle: w.idle(), tooLarge: w.tooLarge, haveErr: w.err != nil, haveViol: w.haveViol,
		violLevel: w.violLevel, violState: w.violState,
	}
}

// snapshot builds a poll response from the cumulative counters, reusing
// the flip buffer's slices (see snapResp).
func (w *meshWorker) snapshot() *Response {
	resp := &w.snapResp[w.snapFlip]
	w.snapFlip ^= 1
	*resp = Response{
		Proto:        protoVersion,
		SentByLevel:  resp.SentByLevel[:0],
		RecvByLevel:  resp.RecvByLevel[:0],
		FreshByLevel: resp.FreshByLevel[:0],
		Links:        resp.Links[:0],
		Drained:      w.drained(),
		Idle:         w.idle(),
		MaxFresh:     w.maxFresh,
		Fresh:        w.fresh,
		Transitions:  w.transitions,
		Routed:       w.routed,
		Filtered:     w.filtered,
		RawBytes:     8 * w.words * (w.routed + w.filtered),
		WireBytes:    w.wireBytes,
		TooLarge:     w.tooLarge,
		ViolApp:      -1,
		Ckpt:         w.ckptLevel,
		LinkDown:     append(resp.LinkDown[:0], w.linkDown...),
	}
	for l := range w.levels {
		lv := &w.levels[l]
		resp.SentByLevel = append(resp.SentByLevel, lv.sent)
		resp.RecvByLevel = append(resp.RecvByLevel, lv.recv)
		resp.FreshByLevel = append(resp.FreshByLevel, lv.fresh)
	}
	if w.err != nil {
		resp.Err = w.err.Error()
	}
	if w.haveViol {
		resp.Viol = true
		resp.ViolLevel, resp.ViolState, resp.ViolApp = w.violLevel, w.violState, w.violApp
	}
	for d := range w.linkStates {
		if d != w.id && (w.linkStates[d] > 0 || w.linkBytes[d] > 0) {
			resp.Links = append(resp.Links, verify.LinkWire{
				From: w.id, To: d, States: w.linkStates[d], Bytes: w.linkBytes[d],
			})
		}
	}
	w.lastSnap, w.haveSnap = w.digest(), true
	return resp
}

// poll is one control-plane epoch on the worker side: absorb the
// coordinator's milestone knowledge, then expand and exchange until there
// is news (or the poll budget runs out), and answer with a snapshot.
func (w *meshWorker) poll(ctl *Control) *Response {
	if ctl != nil {
		if ctl.Recover != nil && w.ft && ctl.Recover.Era > w.era {
			w.recoverTo(ctl.Recover)
		}
		if ctl.Finish {
			w.shutdown()
			w.removeCkpt()
			return w.snapshot()
		}
		w.setFinal(ctl.Final)
		if ctl.HaveViol {
			w.noteBound(ctl.ViolLevel, ctl.ViolState)
		}
	}
	if w.finished {
		return w.snapshot()
	}
	deadline := time.Now().Add(meshPollBudget)
	for {
		w.drainInbox()
		if w.err != nil || w.tooLarge {
			break
		}
		if w.haveViol && (!w.haveSnap || !w.lastSnap.haveViol ||
			w.violLevel != w.lastSnap.violLevel || w.violState != w.lastSnap.violState) {
			break // a new minimum violation is always news
		}
		if !w.expandChunk(meshChunk) {
			w.flushOut()
			if !w.haveSnap || w.digest() != w.lastSnap {
				break
			}
			if !w.waitData(deadline) {
				break
			}
			continue
		}
		if time.Now().After(deadline) {
			w.flushOut()
			break
		}
	}
	w.maybeCheckpoint()
	return w.snapshot()
}

// waitData blocks until a mesh batch arrives or the poll deadline passes,
// reporting whether it is worth looping again.
func (w *meshWorker) waitData(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	if d > meshIdleWait {
		d = meshIdleWait
	}
	if w.waitT == nil {
		w.waitT = time.NewTimer(d)
	} else {
		w.waitT.Reset(d)
	}
	select {
	case <-w.inbox.notify:
		if !w.waitT.Stop() {
			select {
			case <-w.waitT.C:
			default:
			}
		}
		return true
	case <-w.waitT.C:
		return false
	}
}

// shutdown tears the node's data plane down (idempotent): links closed,
// registry entry released. The session's cumulative counters fold into the
// worker-side metrics here — once per session, zero hot-path cost.
func (w *meshWorker) shutdown() {
	if w.finished {
		return
	}
	w.finished = true
	obsSessions.Inc()
	obsFresh.Add(uint64(w.fresh))
	obsWireBytes.Add(uint64(w.wireBytes))
	obsRoutedStates.Add(uint64(w.routed))
	obsFilteredStates.Add(uint64(w.filtered))
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	if w.cleanup != nil {
		w.cleanup()
	}
}

// meshTracker is the coordinator's milestone state over one mesh run. It
// is pure bookkeeping (no I/O), so the epoch/termination invariants are
// unit-testable against adversarial snapshot interleavings.
type meshTracker struct {
	n           int
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
	return &meshTracker{n: n, done: -1, drained: make([]int, n), idle: make([]bool, n), gone: make([]bool, n), violApp: -1}
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

// newSessionID draws a random mesh-rendezvous token; daemons serving
// several coordinators key their link registries by it.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

// meshPoller keeps one long-lived call goroutine per node so the poll
// loop's rounds reuse the same machinery instead of spawning goroutines
// and result slices every epoch (those per-round allocations grew with
// the node count). Rounds stay concurrent — workers long-poll inside
// Call, so a sequential round would serialize the cluster.
//
// Every dispatched call carries a sequence number and every round bounds
// its wait with meshDeathTimeout; an answer to a call the poller has given
// up on — or one issued against a transport since replaced by adopt — is
// discarded by sequence mismatch, so a slow reply from a declared-dead
// worker can never be mistaken for a current one.
type meshPoller struct {
	reqs     []chan pollReq
	done     chan pollResult
	errs     []error // why each node last died: transport error, Response.Err or timeout
	alive    []bool
	inflight []bool
	seqs     []uint64
	seq      uint64
	all      []int       // every node index, round's default address set
	timer    *time.Timer // the rounds' one death timer, re-armed per round
}

type pollReq struct {
	req *Request
	seq uint64
}

type pollResult struct {
	i    int
	seq  uint64
	resp *Response
	err  error
}

func newMeshPoller(nodes []Transport) *meshPoller {
	n := len(nodes)
	p := &meshPoller{
		reqs:     make([]chan pollReq, n),
		done:     make(chan pollResult, 4*n),
		errs:     make([]error, n),
		alive:    make([]bool, n),
		inflight: make([]bool, n),
		seqs:     make([]uint64, n),
		all:      make([]int, n),
		timer:    time.NewTimer(meshDeathTimeout),
	}
	p.timer.Stop()
	for i, tr := range nodes {
		p.alive[i], p.all[i] = true, i
		p.reqs[i] = p.spawn(i, tr)
	}
	return p
}

func (p *meshPoller) spawn(i int, tr Transport) chan pollReq {
	ch := make(chan pollReq)
	go func() {
		for pr := range ch {
			resp, err := tr.Call(pr.req)
			p.done <- pollResult{i: i, seq: pr.seq, resp: resp, err: err}
		}
	}()
	return ch
}

// round sends reqf(i) to every live node of idxs (nil = all; a request may
// be shared and must not be mutated until the round completes), collects
// the answers into resps and returns the nodes that died this round, each
// with its cause in errs: a transport error, a worker-reported Err, or no
// answer within meshDeathTimeout. Entries of resps outside idxs are left
// untouched; those of dead or evicted nodes are nil. It waits for every
// call or the timeout, so a partial failure never leaks an in-flight
// request into the next round.
func (p *meshPoller) round(resps []*Response, idxs []int, reqf func(i int) *Request) (dead []int) {
	if idxs == nil {
		idxs = p.all
	}
	n := 0
	for _, i := range idxs {
		resps[i] = nil
		if p.alive[i] {
			p.seq++
			p.seqs[i], p.inflight[i] = p.seq, true
			p.reqs[i] <- pollReq{reqf(i), p.seq}
			n++
		}
	}
	p.timer.Reset(meshDeathTimeout)
	defer p.timer.Stop()
	for n > 0 {
		select {
		case r := <-p.done:
			if !p.inflight[r.i] || r.seq != p.seqs[r.i] {
				continue // answer to an abandoned call
			}
			p.inflight[r.i] = false
			n--
			switch {
			case r.err != nil:
				p.errs[r.i] = r.err
			case r.resp.Err != "":
				p.errs[r.i] = errors.New(r.resp.Err)
			default:
				resps[r.i] = r.resp
				continue
			}
			dead = append(dead, r.i)
		case <-p.timer.C:
			// Unanswered workers are declared dead; their eventual answers
			// are discarded by the sequence check. Workers answer every
			// poll within meshPollBudget, so only a dead or wedged node
			// ever trips this.
			for i, f := range p.inflight {
				if f {
					p.inflight[i] = false
					p.errs[i] = fmt.Errorf("no answer to a poll within %v", meshDeathTimeout)
					dead = append(dead, i)
				}
			}
			return dead
		}
	}
	return dead
}

// evict marks a node dead: it is skipped by every later round.
func (p *meshPoller) evict(i int) {
	p.alive[i] = false
}

// adopt replaces node i's transport with a late-joining spare: the old
// call channel is closed (its goroutine exits after any in-flight call,
// whose answer the sequence check discards) and a fresh goroutine
// serves the replacement under the same node index.
func (p *meshPoller) adopt(i int, tr Transport) {
	close(p.reqs[i])
	p.reqs[i] = p.spawn(i, tr)
	p.alive[i] = true
	p.inflight[i] = false
}

func (p *meshPoller) close() {
	for _, ch := range p.reqs {
		close(ch)
	}
}

// meshFT is the coordinator's death handling over one mesh run: who last
// checkpointed and answered what, the current era and ownership table, and
// the spare transports still available for adoption. Every run has one; a
// run without Job.FT recovers from a death by naming it. deadWire
// preserves evicted nodes' final wire totals — true traffic the rollback
// cannot re-attribute (survivors keep only their own wire counters).
type meshFT struct {
	job        Job // Init template for adopting replacement workers
	poller     *meshPoller
	tr         *meshTracker
	trace      *obs.Trace
	lastCkpt   []int
	lastSnap   []*Response
	era        int
	owners     []uint8
	spares     []Transport
	deadWire   verify.WireStats
	recoveries int
}

func newMeshFT(job Job, poller *meshPoller, tr *meshTracker, trace *obs.Trace, spares []Transport) *meshFT {
	n := job.NumNodes
	ft := &meshFT{
		job:      job,
		poller:   poller,
		tr:       tr,
		trace:    trace,
		lastCkpt: make([]int, n),
		lastSnap: make([]*Response, n),
		owners:   job.Owners,
		spares:   spares,
	}
	for i := range ft.lastCkpt {
		ft.lastCkpt[i] = -1
	}
	return ft
}

// note records a healthy round's checkpoint watermarks and snapshots.
// The snapshot pointers stay valid after a node dies: workers
// double-buffer their responses, and a dead node is never polled again,
// so the buffer a retained snapshot lives in is not rewritten.
func (ft *meshFT) note(resps []*Response) {
	for i, r := range resps {
		if r != nil {
			ft.lastCkpt[i] = r.Ckpt
			ft.lastSnap[i] = r
		}
	}
}

// foldLinkDown turns worker-reported dead links into coordinator death
// verdicts: a severed link is indistinguishable from (and treated as)
// the death of its far end, so the run converges on a surviving
// component instead of hanging on a partition.
func (ft *meshFT) foldLinkDown(resps []*Response) (dead []int) {
	for i, r := range resps {
		if r == nil || !ft.poller.alive[i] {
			continue
		}
		for _, j := range r.LinkDown {
			if j >= 0 && j < len(ft.poller.alive) && ft.poller.alive[j] {
				dead = append(dead, j)
			}
		}
	}
	return dead
}

// recover is what a death leads to. Without fault tolerance that is the
// error the run ends in, naming the lowest dead node and its cause (as a
// poisoned run always did). With it, it is the takeover loop: each
// iteration evicts the newly dead, adopts spares into the freed slots when
// available, reassigns orphaned shards to the survivors, rolls the cluster
// back to the deepest cut every relevant checkpoint supports, and issues
// the mixed recovery round — Recover-tagged polls to survivors,
// restore-Inits to adoptions. Deaths during that round feed the next
// iteration: the double-fault case is just a second lap.
func (ft *meshFT) recover(resps []*Response, dead []int) error {
	p, t := ft.poller, ft.tr
	if !ft.job.FT {
		d := slices.Min(dead)
		return &nodeError{d, p.errs[d]}
	}
	adoptedNow := make([]bool, len(p.alive))
	for len(dead) > 0 {
		cut := 1 << 30
		any := false
		for _, d := range dead {
			if !p.alive[d] {
				continue // duplicate report
			}
			any = true
			p.evict(d)
			t.gone[d] = true
			adoptedNow[d] = false
			if s := ft.lastSnap[d]; s != nil {
				ft.deadWire.Add(verify.WireStats{
					RoutedStates:   s.Routed,
					FilteredStates: s.Filtered,
					RawBytes:       s.RawBytes,
					WireBytes:      s.WireBytes,
				})
				// Folded once; a replacement adopted into this slot must
				// not inherit (and re-fold) its predecessor's snapshot.
				ft.lastSnap[d] = nil
			}
			// The cut can be no deeper than what the dead node persisted:
			// its shards restore from its segments.
			if ft.lastCkpt[d] < cut {
				cut = ft.lastCkpt[d]
			}
		}
		if !any {
			return nil
		}
		// Adopt spares into freed slots in index order: a replacement
		// inherits the dead node's ID and shard set, so slots we can
		// refill need no reassignment.
		for _, d := range dead {
			if len(ft.spares) == 0 {
				break
			}
			if !p.alive[d] {
				p.adopt(d, ft.spares[0])
				ft.spares = ft.spares[1:]
				t.gone[d] = false
				adoptedNow[d] = true
			}
		}
		live := 0
		for _, ok := range p.alive {
			if ok {
				live++
			}
		}
		if live == 0 {
			return errors.New("dverify: every worker dead and no spares left; run unrecoverable")
		}
		// Survivors can restore only what they persisted themselves.
		for i, ok := range p.alive {
			if ok && !adoptedNow[i] && ft.lastCkpt[i] < cut {
				cut = ft.lastCkpt[i]
			}
		}
		owners, moved := reassignOwners(ft.owners, p.alive)
		ft.owners = owners
		ft.era++
		t.rebase(cut)
		var deadSet []int
		for i, ok := range p.alive {
			if !ok {
				deadSet = append(deadSet, i)
			}
		}
		// Adoption Inits go first and must complete before any survivor
		// receives its Recover order: a survivor's post-rollback expansion
		// can route states to the replacement immediately, so the
		// replacement's inbox has to be registered before the first
		// survivor rolls back. A replacement dying (or reporting a stale
		// protocol) during its Init feeds the next lap before the
		// survivors ever saw this era.
		var adoptIdx, survIdx []int
		for i, ok := range p.alive {
			switch {
			case !ok:
			case adoptedNow[i]:
				adoptIdx = append(adoptIdx, i)
			default:
				survIdx = append(survIdx, i)
			}
		}
		if len(adoptIdx) > 0 {
			next := p.round(resps, adoptIdx, func(i int) *Request {
				j := ft.job
				j.NodeID = i
				j.Owners = owners
				j.Era = ft.era
				j.Cut = cut
				return &Request{Kind: KindInit, Job: &j}
			})
			for _, i := range adoptIdx {
				if r := resps[i]; r != nil && p.alive[i] {
					if r.Proto != protoVersion {
						next = append(next, i) // stale replacement build: treat as dead
						continue
					}
					ft.lastCkpt[i] = cut
					ft.lastSnap[i] = r
					adoptedNow[i] = false
				}
			}
			if len(next) > 0 {
				dead = next
				continue
			}
		}
		var recCtl Control
		t.controlInto(&recCtl)
		recCtl.Recover = &Recover{Era: ft.era, Owners: owners, Cut: cut, Dead: deadSet}
		next := p.round(resps, survIdx, func(int) *Request {
			return &Request{Kind: KindPoll, Ctl: &recCtl}
		})
		for _, i := range survIdx {
			if r := resps[i]; r != nil && p.alive[i] {
				ft.lastCkpt[i] = cut
				ft.lastSnap[i] = r
			}
		}
		next = append(next, ft.foldLinkDown(resps)...)
		ft.recoveries++
		obsRecoveries.Inc()
		obsShardsReassigned.Add(uint64(moved))
		ft.trace.AddFailover(ft.era, deadSet, cut, moved)
		dead = next
	}
	return nil
}

// verifyMesh drives the distributed search: Init wires the worker↔worker
// links, then the coordinator runs the poll/epoch control plane until the
// tracker proves termination, and a Finish round collects final counters.
// trace (nil-safe) gains the per-level frontier sizes (from the workers'
// FreshByLevel snapshots), one NodeSpan per worker and the epoch count.
//
// Deaths — a transport error, a worker Err, no answer within
// meshDeathTimeout, or a peer's LinkDown report — go to meshFT.recover: with
// job.FT the run completes with the exact verdict as long as at least one
// worker (or adopted spare) survives each takeover, without it the run ends
// in an error naming the node and the cause. Either way a poll round
// returns. The Init round is fail-fast in both modes — fault tolerance
// covers the run, not its setup. plan (nil-safe) is the deterministic
// fault-injection harness; its kills fire against tracker milestones
// before poll rounds.
func verifyMesh(job Job, nodes []Transport, peers []string, trace *obs.Trace, plan *faultPlan) (verify.Result, error) {
	res := verify.Result{Schedulable: true, Bounded: job.MaxDisturbances > 0}
	job.Session = newSessionID()
	job.Peers = peers
	if job.FT {
		job.Owners = defaultOwners(job.NumNodes)
		if job.CheckpointDir != "" {
			// Coordinator-side sweep of the session's segments: covers runs
			// where no worker reached a clean Finish (shared-filesystem
			// clusters; on remote workers this is a no-op locally and the
			// daemons clean up on their next session).
			defer os.RemoveAll(ckptSessionDir(job.CheckpointDir, job.Session))
		}
	}
	poller := newMeshPoller(nodes)
	defer poller.close()
	resps := make([]*Response, len(nodes))
	if dead := poller.round(resps, nil, func(i int) *Request {
		j := job
		j.NodeID = i
		return &Request{Kind: KindInit, Job: &j}
	}); len(dead) > 0 {
		d := slices.Min(dead)
		return res, &nodeError{d, poller.errs[d]}
	}
	for i, r := range resps {
		if r.Proto != protoVersion {
			return res, fmt.Errorf("dverify: node %d speaks protocol %d, coordinator %d (restart verifyd with the current build)",
				i, r.Proto, protoVersion)
		}
	}

	tr := newMeshTracker(len(nodes))
	var spares []Transport
	if plan != nil {
		spares = plan.spares
	}
	ft := newMeshFT(job, poller, tr, trace, spares)
	var ctl Control
	req := &Request{Kind: KindPoll, Ctl: &ctl}
	poll := func(int) *Request { return req }
	// finish ends the session. The verdict is already determined
	// (quiescence, or a settled violation), so a death during the finish
	// round cannot change it: the node's last snapshot stands in — a worker
	// changes state only inside a poll, so it is the answer it would have
	// given.
	finish := func() []*Response {
		tr.controlInto(&ctl)
		ctl.Finish = true
		for _, d := range poller.round(resps, nil, poll) {
			resps[d] = ft.lastSnap[d]
		}
		return resps
	}
	epochs := 0
	for {
		plan.fire(tr.final, ft.recoveries)
		tr.controlInto(&ctl)
		dead := poller.round(resps, nil, poll)
		dead = append(dead, ft.foldLinkDown(resps)...)
		epochs++
		if len(dead) > 0 {
			// Without fault tolerance the run is poisoned and ends here;
			// surviving workers tear down when their session ends
			// (transport Close / next Init).
			if err := ft.recover(resps, dead); err != nil {
				return res, err
			}
			continue // tracker rebased; observe a fresh round first
		}
		ft.note(resps)
		tr.observe(resps)
		tr.advance()
		if !tr.terminated() && !tr.tooLarge {
			continue
		}
		tr.observe(finish())
		res.States, res.Transitions = tr.fresh, tr.transitions
		res.Depth, res.Wire = tr.maxFresh, tr.wire
		res.Wire.Add(ft.deadWire)
		if tr.tooLarge && !tr.haveViol {
			// Report the partial exploration: budget-busted admission checks
			// still count their states and wire volume.
			return res, verify.ErrTooLarge
		}
		// Like the local search, a recorded violation is preferred over
		// ErrTooLarge when the budget trips: the verdict is sound, but on
		// the budget edge the violator may not be the level minimum a
		// larger budget would report.
		foldMeshTrace(trace, resps, epochs+1)
		if tr.haveViol {
			res.Schedulable = false
			res.Violator = tr.violApp
			res.Depth = tr.violLevel
		}
		return res, nil
	}
}
