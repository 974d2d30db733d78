package dverify

import (
	"fmt"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// meshChunk is how many states a worker expands between inbox drains and
// control checks; meshPollBudget caps how long a worker holds a poll before
// answering with an interim snapshot; meshBatchTarget is the flush threshold
// of per-destination send buffers and the capacity of a batch, in words
// (32 KB: 4,096 one-word states, 1,024 wide ones); meshFreeBatches caps the
// worker-local batch free list.
const (
	meshChunk       = 1024
	meshPollBudget  = 25 * time.Millisecond
	meshBatchTarget = 4096
	meshFreeBatches = 512
)

// meshWorker is one node of the mesh search, and one goroutine: the
// transport's serve loop calls Init/Poll, and all search, routing and
// accounting state is touched only from those calls (peer readers touch
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
	outBuf   [][]uint64 // per-destination successors, this node's own included
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

	waitT *time.Timer
	// Snapshot responses are double-buffered: the coordinator reads round
	// k's response while the worker builds round k+1 into the other
	// buffer, so the per-poll counter copies reuse their backing arrays
	// instead of allocating on every round. initResp backs the Init reply
	// the same way: by the time a follow-up job re-Inits the worker, the
	// previous reply is long consumed.
	snapResp [2]Response
	snapFlip int
	initResp Response
}

// meshSession is one job on one cluster: placement, budget, the data plane
// and what is true of the whole run whatever gets rolled back — the wire
// history (traffic that happened).
type meshSession struct {
	id, n  int
	job    *Job // what the worker was built for (reuse compatibility)
	budget int

	inbox *meshInbox
	links []meshLink
	env   meshEnv // set once connected: shutdown leaves through it

	routed    int
	wireBytes int

	// Fault tolerance (ft.go): ft reports link failures instead of
	// poisoning the run, and ckptOn persists finished levels under ckptDir.
	ft      bool
	ckptOn  bool
	ckptDir string // per-session segment directory

	finished bool
}

// meshLevel is the per-level search record: bucket[:cursor] — words, like
// the cursor — is expanded, and fresh counts the level's commits (set
// pre-sizing, trace).
type meshLevel struct {
	bucket []uint64
	cursor int
	fresh  int
}

// meshEra is everything a rollback erases: the search frontier and its
// counters, the round in progress, the level's violation and the routing
// view. level is the level the coordinator last polled; got counts the
// level-tagged states received from peers, against the round's Expect;
// ahead holds the level+1-tagged batches until the round of their level
// (drainInbox); sentTo counts the level+1 states shipped to each
// destination this round. owners is the routing table
// (default contiguous, rewritten by Recover); ckptLevel the highest level
// fully persisted as checkpoint segments (-1 = none); ftTrans attributes
// transitions per (level, shard) so segments carry exact counts; deadPeers
// suppresses sends to nodes known dead; linkDown is the cumulative dead-peer
// report for the coordinator.
type meshEra struct {
	levels []meshLevel
	level  int
	got    int
	ahead  [][]uint64
	sentTo []int

	fresh       int
	transitions int
	maxFresh    int
	tooLarge    bool
	err         error

	// The minimum violating state of the level, and the application that
	// misses there.
	haveViol  bool
	violState verify.PackedState
	violApp   int

	era       int
	owners    [numShards]uint8
	ckptLevel int
	ftTrans   [][numShards]int64
	deadPeers []bool
	linkDown  []int
}

// newMeshWorker builds a node for a mesh job and wires its data links
// through env — the only build path. A previous worker whose job is
// compatible donates its standing part (expander, visited table — the
// dominant per-run allocation — and batch memory): a standing cluster
// re-verifying a slot, a daemon serving successive coordinators or the
// bench loop, does not restart its steady state from zero. The donor's
// links are already down (Init goes through handler.reset) and its
// registration is gone; what its run left parked — a violating or
// over-budget run stops with frontier and sends in place — is recycled by
// the same resets that start every worker.
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
			outBuf:  make([][]uint64, n),

			linkStates: make([]int, n),
			linkBytes:  make([]int, n),
		}}
	}

	// The session. The inbox is new, not the old one swept: a peer reader
	// of the previous session may still hold it and push a late frame — or
	// the EOF of a link its sender has already closed — after any sweep.
	clear(w.linkStates)
	clear(w.linkBytes)
	w.meshSession = meshSession{
		id:     job.NodeID,
		n:      n,
		job:    job,
		budget: job.MaxStates,
		inbox:  newMeshInbox(),
		ft:     job.FT,
		ckptOn: job.FT && job.CheckpointDir != "",
	}
	if w.budget <= 0 {
		w.budget = defaultMaxStates
	}
	if w.ckptOn {
		w.ckptDir = ckptSessionDir(job.CheckpointDir, job.Session)
	}
	w.resetEra(job.Era, job.Owners, nil)

	links, err := env.connect(job, w.inbox, w.exp)
	if err != nil {
		return nil, nil, err
	}
	w.links, w.env = links, env
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
// visited table and the send buffers), then starts the new era from a fresh
// value: only what is named below differs from zero. dead is the complete current dead set —
// rebuilt, not accumulated, so a replacement adopted into a dead slot
// receives traffic again — and the cumulative LinkDown report restarts
// empty: the coordinator already acted on everything reported before.
func (w *meshWorker) resetEra(era int, owners []uint8, dead []int) {
	for l := range w.levels {
		if cap(w.levels[l].bucket) > 0 {
			w.recycleBucket(l)
		}
	}
	for i, b := range w.ahead {
		w.putBatch(b)
		w.ahead[i] = nil
	}
	for d := range w.outBuf {
		if w.outBuf[d] == nil {
			w.outBuf[d] = w.getBatch()
		}
		w.outBuf[d] = w.outBuf[d][:0]
	}
	w.visited.Reset()
	if w.deadPeers == nil {
		w.deadPeers, w.sentTo = make([]bool, w.n), make([]int, w.n)
	}
	clear(w.deadPeers)
	clear(w.sentTo)
	for _, d := range dead {
		if d >= 0 && d < w.n {
			w.deadPeers[d] = true
		}
	}
	w.meshEra = meshEra{
		levels:    w.levels[:0],
		ahead:     w.ahead[:0],
		sentTo:    w.sentTo,
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

// snapshot builds a poll response from the cumulative counters, reusing
// the flip buffer's slices (see snapResp). done marks the answer to a
// finished round: it carries the round's SentTo and Next.
func (w *meshWorker) snapshot(done bool) *Response {
	resp := &w.snapResp[w.snapFlip]
	w.snapFlip ^= 1
	*resp = Response{
		Proto:        protoVersion,
		SentTo:       resp.SentTo[:0],
		FreshByLevel: resp.FreshByLevel[:0],
		Links:        resp.Links[:0],
		MaxFresh:     w.maxFresh,
		Fresh:        w.fresh,
		Transitions:  w.transitions,
		Routed:       w.routed,
		RawBytes:     8 * w.sw * w.routed,
		WireBytes:    w.wireBytes,
		TooLarge:     w.tooLarge,
		ViolApp:      -1,
		Ckpt:         w.ckptLevel,
		LinkDown:     append(resp.LinkDown[:0], w.linkDown...),
	}
	for l := range w.levels {
		resp.FreshByLevel = append(resp.FreshByLevel, w.levels[l].fresh)
	}
	if done {
		resp.SentTo = append(resp.SentTo, w.sentTo...)
		if next := w.level + 1; next < len(w.levels) {
			resp.Next = w.levels[next].fresh
		}
	}
	if w.err != nil {
		resp.Err = w.err.Error()
	}
	if w.haveViol {
		resp.Viol = true
		resp.ViolState, resp.ViolApp = w.violState, w.violApp
	}
	for d := range w.linkStates {
		if d != w.id && (w.linkStates[d] > 0 || w.linkBytes[d] > 0) {
			resp.Links = append(resp.Links, verify.LinkWire{
				From: w.id, To: d, States: w.linkStates[d], Bytes: w.linkBytes[d],
			})
		}
	}
	return resp
}

// poll is one round on the worker side. A Recover order rolls the worker
// back to the cut and answers without expanding. Otherwise the worker
// absorbs until it holds the ctl.Expect states of level ctl.Level its peers
// shipped it, expands its bucket of that level, committing its own
// successors as it goes, and answers with a snapshot of the finished round
// — or, when meshPollBudget runs out first, with an interim one, and the
// coordinator polls it again at the same level.
func (w *meshWorker) poll(ctl *Control) *Response {
	if ctl.Recover != nil {
		if w.ft {
			w.recoverTo(ctl.Recover)
		}
		return w.snapshot(false)
	}
	if ctl.Finish {
		w.shutdown()
		w.removeCkpt()
		return w.snapshot(false)
	}
	if w.finished {
		return w.snapshot(false)
	}
	switch ctl.Level {
	case w.level:
	case w.level + 1:
		w.level, w.got = w.level+1, 0
		clear(w.sentTo)
		for i, b := range w.ahead {
			w.got += len(b) / w.sw
			w.absorb(w.level, b)
			w.ahead[i] = nil
		}
		w.ahead = w.ahead[:0]
	default:
		w.err = fmt.Errorf("polled for level %d at level %d", ctl.Level, w.level)
	}
	deadline := time.Now().Add(meshPollBudget)
	done := false
	for w.err == nil && !w.tooLarge {
		w.drainInbox()
		if w.got < ctl.Expect {
			if !w.waitData(deadline) {
				break
			}
			continue
		}
		if !w.expandChunk(meshChunk) {
			done = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	w.flushOut()
	if done {
		w.retire()
	}
	// A worker over its budget stops here: its round is as finished as it
	// will get, and the coordinator ends the run with it.
	return w.snapshot(done || w.tooLarge)
}

// waitData blocks until a mesh batch arrives or the poll deadline passes,
// reporting whether it is worth looping again.
func (w *meshWorker) waitData(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
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
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	if w.env != nil {
		w.env.leave(w.job, w.inbox)
	}
}
