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
// states (32 KB); meshFreeBatches
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
// (memory only, no facts about any run), meshSession lives for one job.
type meshWorker struct {
	meshStanding
	meshSession
}

// meshStanding is what a compatible follow-up job inherits: the expander,
// the lane structs and recycled batch memory. None of it says anything
// about a run, and none of it grows with the search: the lanes' visited
// tables and level blocks live only while a job's search runs (Init gives
// the lanes fresh ones, shutdown releases them). States are flat
// words throughout, one per state.
type meshStanding struct {
	exp    *verify.Expander
	lanes  *verify.Lanes
	shipFn func(int, []uint64) []uint64 // w.ship, bound once
	spareQ []meshBatch
	in     [][]uint64 // one drain's batches of the level, for Absorb

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

// meshSession is one job on one cluster: placement, the data plane,
// the wire history (traffic that happened) and the round in progress.
// level is the level the coordinator last polled; got counts the
// level-tagged states received from peers, against the round's Expect;
// ahead holds the level+1-tagged batches until the round of their level
// (drainInbox); sentTo counts the level+1 states shipped to each
// destination this round and shipped over the session (the snapshots'
// Shipped). levelFresh counts the states committed per level (the
// snapshots' FreshByLevel). deadPeers suppresses sends to peers whose
// link failed; linkDown is the cumulative dead-link report for the
// coordinator, which counts each as its far end's death.
type meshSession struct {
	id, n int
	job   *Job // what the worker was built for (reuse compatibility)

	inbox *meshInbox
	links []meshLink
	env   meshEnv // set once connected: shutdown leaves through it

	level   int
	got     int
	ahead   [][]uint64
	sentTo  []int
	shipped []int

	levelFresh []int
	err        error

	deadPeers []bool
	linkDown  []DeadLink

	finished bool
}

// newMeshWorker builds a node for a mesh job and wires its data links
// through env — the only build path. A previous worker whose job is
// compatible donates its standing part (expander, lane structs and batch
// memory): a standing cluster re-verifying a slot, a daemon serving
// successive coordinators or the bench loop, does not rebuild the expander
// or refill its batch free list. The visited tables are not donated: the
// new job grows its own from setCap scaled by the lanes' share of the
// cluster's search (verify.Lanes.Reset), as every local search does. The
// donor's links are already down and its tables released (Init goes
// through handler.reset), and its registration is gone; what its run left
// parked — a violating or busted run stops with sends in place — is
// recycled here.
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
			lanes:  exp.NewLanes(lanes),
			spareQ: make([]meshBatch, 0, 32),
		}}
	}

	// The session. The inbox is new, not the old one swept: a peer reader
	// of the previous session may still hold it and push a late frame — or
	// the EOF of a link its sender has already closed — after any sweep.
	// The round state's slices keep their backing arrays across jobs; the
	// batches the previous run left waiting go back to the free list.
	for i, b := range w.ahead {
		w.putBatch(b)
		w.ahead[i] = nil
	}
	if w.sentTo == nil {
		w.sentTo, w.shipped, w.deadPeers = make([]int, n), make([]int, n), make([]bool, n)
	}
	clear(w.sentTo)
	clear(w.shipped)
	clear(w.deadPeers)
	w.meshSession = meshSession{
		id:         job.NodeID,
		n:          n,
		job:        job,
		inbox:      newMeshInbox(),
		ahead:      w.ahead[:0],
		sentTo:     w.sentTo,
		shipped:    w.shipped,
		levelFresh: w.levelFresh[:0],
		deadPeers:  w.deadPeers,
		linkDown:   w.linkDown[:0],
	}
	budget := job.MaxStates
	if budget <= 0 {
		budget = defaultMaxStates
	}
	w.lanes.Reset(n, w.id, budget)

	links, err := env.connect(w)
	if err != nil {
		w.lanes.Release() // nothing keeps this worker
		return nil, nil, err
	}
	w.links, w.env = links, env
	if w.shipFn == nil {
		w.shipFn = w.ship
	}
	if init := w.exp.Initial(); verify.ShardOf(w.exp.Hash(init))*n/verify.NumShards == w.id {
		w.lanes.Absorb([][]uint64{{uint64(init)}}) // the initial state, on its owner
	}
	w.initResp = Response{Proto: protoVersion, ViolApp: -1, LinkDown: append(w.initResp.LinkDown[:0], w.linkDown...)}
	return w, &w.initResp, nil
}

// snapshot builds a poll response from the cumulative counters, reusing
// the flip buffer's slices (see snapResp). done marks the answer to a
// finished round: it carries the round's SentTo.
func (w *meshWorker) snapshot(done bool) *Response {
	st := w.lanes.Stats()
	if !w.finished { // a finished worker's lanes hold no level: its counts stand
		for len(w.levelFresh) < w.level+2 {
			w.levelFresh = append(w.levelFresh, 0)
		}
		w.levelFresh[w.level], w.levelFresh[w.level+1] = st.Level, st.Next
	}
	resp := &w.snapResp[w.snapFlip]
	w.snapFlip ^= 1
	*resp = Response{
		Proto:        protoVersion,
		Transitions:  st.Transitions,
		ViolState:    st.Viol,
		ViolApp:      st.ViolApp,
		SentTo:       resp.SentTo[:0],
		FreshByLevel: append(resp.FreshByLevel[:0], w.levelFresh...),
		Shipped:      append(resp.Shipped[:0], w.shipped...),
		LinkDown:     append(resp.LinkDown[:0], w.linkDown...),
	}
	if done {
		resp.SentTo = append(resp.SentTo, w.sentTo...)
	}
	if w.err != nil {
		resp.Err = w.err.Error()
	}
	return resp
}

// poll is one round on the worker side. A finished worker answers every
// poll with its final snapshot, whatever the order. Finish answers with the
// final snapshot and ends the worker. Otherwise the worker
// absorbs until it holds the ctl.Expect states of level ctl.Level its peers
// shipped it, runs the lanes' level rounds over its part of the level,
// committing its own successors as they go and shipping the others', and
// answers with a snapshot of the finished round — or, when meshPollBudget
// runs out first, with an interim one, and the coordinator polls it again
// at the same level.
func (w *meshWorker) poll(ctl *Control) *Response {
	if w.finished {
		return w.snapshot(false)
	}
	if ctl.Finish {
		resp := w.snapshot(false) // before shutdown releases the levels it reads
		w.shutdown()
		return resp
	}
	switch ctl.Level {
	case w.level:
	case w.level + 1:
		w.level, w.got = w.level+1, 0
		clear(w.sentTo)
		w.lanes.Advance()
		for i, b := range w.ahead {
			w.got += len(b)
			w.in, w.ahead[i] = append(w.in, b), nil
		}
		w.ahead = w.ahead[:0]
		w.drainInbox()
	default:
		w.err = fmt.Errorf("polled for level %d at level %d", ctl.Level, w.level)
	}
	deadline := time.Now().Add(meshPollBudget)
	done := false
	for w.err == nil {
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
	return w.snapshot(done)
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

// shutdown ends the node's job (idempotent): links closed, registry entry
// released, and the lanes' visited tables and level blocks released — they
// live as long as the job's search, so an idle worker holds none. The
// session's cumulative counters fold into the worker-side metrics here —
// once per session, zero hot-path cost.
func (w *meshWorker) shutdown() {
	if w.finished {
		return
	}
	w.finished = true
	obsSessions.Inc()
	obsFresh.Add(uint64(w.lanes.Stats().States))
	for _, n := range w.shipped {
		obsRoutedStates.Add(uint64(n))
	}
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	if w.env != nil {
		w.env.leave(w.job)
	}
	w.lanes.Release()
}
