package dverify

import (
	"fmt"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// meshChunk is how many states a worker expands between inbox drains and
// control checks; meshPollBudget caps how long a busy worker holds a poll
// before answering with an interim snapshot; meshIdleWait caps how long an
// idle worker waits for data before answering an unchanged snapshot;
// meshBatchTarget is the flush threshold of per-destination send buffers and
// the capacity of a batch, in words (32 KB: 4,096 one-word states, 1,024
// wide ones); meshFreeBatches caps the worker-local batch free list.
const (
	meshChunk       = 1024
	meshPollBudget  = 25 * time.Millisecond
	meshIdleWait    = 20 * time.Millisecond
	meshBatchTarget = 4096
	meshFreeBatches = 512
)

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
// States are flat words throughout, sw = exp.StateWords() per state.
type meshStanding struct {
	exp      *verify.Expander
	sw       int
	visited  *verify.StateSet
	esc      *verify.ExpandScratch
	succ     []uint64 // one state's successors, their hashes beside them
	hashes   []uint64
	freshIdx []int32 // AddWords' answer for one batch
	spareQ   []meshBatch
	filters  []sendFilter // tables; which are in use is decided per session
	outBuf   [][]uint64   // per-destination successors, this node's own included
	// Per-destination wire counters of the session, zeroed when one starts.
	linkStates []int
	linkBytes  []int

	// Worker-local batch recycling: free is the slice free list fed by
	// absorbed batches and drained buckets, spareBuckets the two largest
	// big frontier buffers retired — the next big levels are built in them,
	// the way the local drivers swap frontier and next instead of allocating
	// per level (recycleBucket).
	free         [][]uint64
	spareBuckets [2][]uint64
	sparePending [][]uint64 // retired deferral-list backbone

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

// meshLevel is the per-level search record. bucket[:cursor] — words, like
// the cursor — is expanded; pending holds batches deferred by the commit
// rule (tag > final+1), ownership transferred; fresh counts the level's
// commits (set pre-sizing, trace), sent and recv the states shipped to and
// drained from mesh links with this tag.
type meshLevel struct {
	bucket     []uint64
	cursor     int
	pending    [][]uint64
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
	if w == nil || !jobsCompatible(w.job, job) {
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
			sw:      exp.StateWords(),
			visited: exp.NewSet(1 << 16),
			esc:     exp.NewScratch(),
			spareQ:  make([]meshBatch, 0, 32),
			filters: make([]sendFilter, n),
			outBuf:  make([][]uint64, n),

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
			w.filters[d] = newSendFilter(w.sw)
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
		if w.outBuf[d] == nil {
			w.outBuf[d] = w.getBatch()
		}
		w.outBuf[d] = w.outBuf[d][:0]
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
		w.absorb(0, append(w.getBatch(), init[:w.sw]...))
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
	for _, b := range w.outBuf {
		if len(b) > 0 {
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

// digest captures the snapshot fields the long-poll news check compares
// (pendingN in words: it is only ever compared with itself).
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
		RawBytes:     8 * w.sw * (w.routed + w.filtered),
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
		w.waitT.Stop() // go ≥ 1.23 timers: nothing stale is left in C
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
