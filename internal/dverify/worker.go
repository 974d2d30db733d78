package dverify

import (
	"fmt"
	"runtime"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// meshPollBudget caps how long a worker holds a poll before answering with
// an interim snapshot; meshBatchTarget is the capacity of a fresh batch, in
// words (32 KB: 4,096 one-word states, 1,024 wide ones); meshFreeBatches
// caps the worker-local batch free list.
const (
	meshPollBudget  = 25 * time.Millisecond
	meshBatchTarget = 4096
	meshFreeBatches = 512
)

// meshWorker is one node of the mesh search: P lanes (verify.Lanes, the
// round the local parallel search runs) driven from the transport's serve
// loop, which calls Init/Poll. The lanes run their phases on goroutines of
// their own, but all routing, link and accounting state is touched only
// from those calls: the lanes hand their foreign successors back to the
// calling goroutine (ship), and peer readers touch nothing but the inbox.
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

// meshStanding is what a compatible follow-up job inherits: the expander,
// the lanes with their visited tables and frontiers, and recycled memory.
// None of it says anything about a run — resetEra empties what can hold
// state. States are flat words throughout, sw = exp.StateWords() per state.
type meshStanding struct {
	exp    *verify.Expander
	sw     int
	lanes  verify.Lanes
	shipFn func(int, []uint64) []uint64 // w.ship, bound once
	spareQ []meshBatch
	in     [][]uint64 // one drain's batches of the level, for Absorb
	// Per-destination wire counters of the session, zeroed when one starts.
	linkStates []int
	linkBytes  []int

	// Worker-local batch recycling: the slice free list fed by absorbed
	// batches and drained by the lanes' shipments.
	free [][]uint64

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
// history (traffic that happened). ckptOn persists finished levels under
// ckptDir (ft.go); the coordinator sets Job.CheckpointDir only on a
// fault-tolerant run. Nothing else in a worker depends on fault tolerance:
// a dead link is always reported (noteLinkDown) and a Recover order always
// obeyed — what a death leads to is the coordinator's decision.
type meshSession struct {
	id, n  int
	job    *Job // what the worker was built for (reuse compatibility)
	budget int

	inbox *meshInbox
	links []meshLink
	env   meshEnv // set once connected: shutdown leaves through it

	routed    int
	wireBytes int

	ckptOn  bool
	ckptDir string // per-session segment directory

	finished bool
}

// meshEra is everything a rollback erases besides the lanes' search state:
// the round in progress and the routing view. level is the level the
// coordinator last polled; got counts the level-tagged states received
// from peers, against the round's Expect; ahead holds the level+1-tagged
// batches until the round of their level (drainInbox); sentTo counts the
// level+1 states shipped to each destination this round. levelFresh counts
// the states committed per level (the snapshots' FreshByLevel), restored
// the transitions of the levels a recovery restored below its cut. owners
// is the routing table (the Job's, then each Recover order's);
// ckptLevel the highest level fully persisted as checkpoint segments (-1 =
// none); deadPeers suppresses sends to nodes known dead; linkDown is the
// cumulative dead-peer report for the coordinator.
type meshEra struct {
	level  int
	got    int
	ahead  [][]uint64
	sentTo []int

	levelFresh []int
	restored   int
	err        error

	era       int
	owners    [verify.NumShards]uint8
	ckptLevel int
	deadPeers []bool
	linkDown  []DeadLink
}

// newMeshWorker builds a node for a mesh job and wires its data links
// through env — the only build path. A previous worker whose job is
// compatible donates its standing part (expander, lanes with their visited
// tables — the dominant per-run allocation — and batch memory): a standing
// cluster re-verifying a slot, a daemon serving successive coordinators or
// the bench loop, does not restart its steady state from zero. The donor's
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
	if err := checkOwners(job.Owners, n); err != nil {
		return nil, nil, err
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
		// Workers 0 is worked out here, where the node runs: GOMAXPROCS,
		// shared by the nodes of one process — all of a loopback cluster's;
		// a verifyd daemon hosts one node at a time.
		lanes := job.Workers
		if lanes <= 0 {
			lanes = runtime.GOMAXPROCS(0)
			if _, ok := env.(loopEnv); ok {
				lanes = max(1, lanes/n)
			}
		}
		w = &meshWorker{meshStanding: meshStanding{
			exp:    exp,
			sw:     exp.StateWords(),
			lanes:  exp.NewLanes(lanes),
			spareQ: make([]meshBatch, 0, 32),

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
		ckptOn: job.CheckpointDir != "",
	}
	if w.budget <= 0 {
		w.budget = defaultMaxStates
	}
	if w.ckptOn {
		w.ckptDir = ckptSessionDir(job.CheckpointDir, job.Session)
	}
	w.resetEra(0, job.Owners, nil)

	links, err := env.connect(job, w.inbox, w.exp)
	if err != nil {
		w.lanes.Release() // nothing keeps this worker
		return nil, nil, err
	}
	w.links, w.env = links, env
	if w.shipFn == nil {
		w.shipFn = w.ship
	}
	w.seed()
	w.initResp = Response{Proto: protoVersion, ViolApp: -1, Fresh: w.lanes.Stats().States}
	return w, &w.initResp, nil
}

// resetEra is the one place a worker's search state is emptied — at Init
// and on every recovery order. It recycles the outgoing era's waiting
// batches into the free list, empties the lanes (visited tables, frontiers)
// under the new ownership table, then starts the new era from a fresh
// value: only what is named below differs from zero. dead is the complete
// current dead set, and the cumulative LinkDown report restarts empty: the
// coordinator already acted on everything reported before.
func (w *meshWorker) resetEra(era int, owners []uint8, dead []int) {
	for i, b := range w.ahead {
		w.putBatch(b)
		w.ahead[i] = nil
	}
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
		ahead:      w.ahead[:0],
		sentTo:     w.sentTo,
		levelFresh: w.levelFresh[:0],
		era:        era,
		owners:     [verify.NumShards]uint8(owners),
		ckptLevel:  -1,
		deadPeers:  w.deadPeers,
		linkDown:   w.linkDown[:0],
	}
	w.lanes.Reset(&w.owners, w.id, w.budget, w.ckptOn)
}

// seed commits the initial state on its owner: the start of a run, and of
// a recovery with no usable checkpoint.
func (w *meshWorker) seed() {
	init := w.exp.Initial()
	if int(w.owners[verify.ShardOf(w.exp.Hash(init))]) == w.id {
		w.lanes.Absorb([][]uint64{init[:w.sw]})
	}
}

// snapshot builds a poll response from the cumulative counters, reusing
// the flip buffer's slices (see snapResp). done marks the answer to a
// finished round: it carries the round's SentTo and Next.
func (w *meshWorker) snapshot(done bool) *Response {
	st := w.lanes.Stats()
	for len(w.levelFresh) < w.level+2 {
		w.levelFresh = append(w.levelFresh, 0)
	}
	w.levelFresh[w.level], w.levelFresh[w.level+1] = st.Level, st.Next
	resp := &w.snapResp[w.snapFlip]
	w.snapFlip ^= 1
	*resp = Response{
		Proto:        protoVersion,
		SentTo:       resp.SentTo[:0],
		FreshByLevel: append(resp.FreshByLevel[:0], w.levelFresh...),
		Links:        resp.Links[:0],
		Fresh:        st.States,
		Transitions:  w.restored + st.Transitions,
		Routed:       w.routed,
		RawBytes:     8 * w.sw * w.routed,
		WireBytes:    w.wireBytes,
		TooLarge:     st.TooLarge,
		ViolApp:      -1,
		Ckpt:         w.ckptLevel,
		LinkDown:     append(resp.LinkDown[:0], w.linkDown...),
	}
	for l, n := range w.levelFresh {
		if n > 0 {
			resp.MaxFresh = l
		}
	}
	if done {
		resp.SentTo = append(resp.SentTo, w.sentTo...)
		resp.Next = st.Next
	}
	if w.err != nil {
		resp.Err = w.err.Error()
	}
	if st.ViolApp >= 0 {
		resp.Viol = true
		resp.ViolState, resp.ViolApp = st.Viol, st.ViolApp
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
// shipped it, runs the lanes' level rounds over its part of the level,
// committing its own successors as they go and shipping the others', and
// answers with a snapshot of the finished round — or, when meshPollBudget
// runs out first, with an interim one, and the coordinator polls it again
// at the same level.
func (w *meshWorker) poll(ctl *Control) *Response {
	if ctl.Recover != nil {
		w.recoverTo(ctl.Recover)
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
		w.lanes.Advance()
		for i, b := range w.ahead {
			w.got += len(b) / w.sw
			w.in, w.ahead[i] = append(w.in, b), nil
		}
		w.ahead = w.ahead[:0]
		w.drainInbox()
	default:
		w.err = fmt.Errorf("polled for level %d at level %d", ctl.Level, w.level)
	}
	deadline := time.Now().Add(meshPollBudget)
	done := false
	for w.err == nil && !w.lanes.Stats().TooLarge {
		w.drainInbox()
		if w.got < ctl.Expect {
			if !w.waitData(deadline) {
				break
			}
			continue
		}
		if !w.lanes.LevelRound(w.shipFn) {
			done = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	// A worker over its budget stops here: its round is as finished as it
	// will get, and the coordinator ends the run with it. A level expanded
	// is final, members and transitions: with checkpointing on, its segments
	// are written now.
	tooLarge := w.lanes.Stats().TooLarge
	if done && !tooLarge && w.ckptOn && w.ckptLevel < w.level {
		if err := w.writeLevel(w.level); err != nil {
			w.err = fmt.Errorf("checkpoint level %d: %v", w.level, err)
		} else {
			w.ckptLevel = w.level
		}
	}
	return w.snapshot(done || tooLarge)
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
	obsFresh.Add(uint64(w.lanes.Stats().States))
	obsWireBytes.Add(uint64(w.wireBytes))
	obsRoutedStates.Add(uint64(w.routed))
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	if w.env != nil {
		w.env.leave(w.job)
	}
}
