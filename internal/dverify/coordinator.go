package dverify

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"tightcps/internal/verify"
)

// meshDeathTimeout bounds every coordinator round: a worker that has not
// answered by then is dead. Workers answer a poll within meshPollBudget,
// so only a dead, stopped or partitioned node trips it. Package variable
// so tests can shrink it.
var meshDeathTimeout = 30 * time.Second

// newSessionID draws a random mesh-rendezvous token; daemons serving
// several coordinators key their link registries by it. crypto/rand.Read
// never returns an error (go1.24).
func newSessionID() uint64 {
	var b [8]byte
	rand.Read(b[:])
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

// attempt runs the distributed search once over the cluster's live nodes,
// numbered 0..len(live)-1 for the attempt: Init wires the worker↔worker
// links, then the coordinator runs one round per BFS level — every worker
// polled at the level with the states it is owed for it, and polled again
// while its answer is interim — until a round finds a violation, busts the
// budget (meshTracker.bust) or leaves the next level empty, and a Finish
// round collects final counters: the workers' FreshByLevel, summed per
// level through Depth and, on a bust, the level that passed the budget, are
// the result's Levels and States. The trace (nil-safe) gains one NodeSpan
// per worker and the round count.
//
// A death in the Init round or a level round — a transport error, no
// answer within meshDeathTimeout, a peer's LinkDown report, a worker Err in
// a level round, or a draining worker at Init — ends the attempt: died is
// set, the dead leave the cluster, the failover is recorded and the caller
// starts the next attempt on the survivors. A draining node's transport is
// closed too, so its drain can finish. Any other worker Err at Init refuses
// the job (busy with another coordinator, another protocol): in a round
// without deaths it is the run's error, naming the node, and the node stays
// in the cluster; so is a protocol-version mismatch.
func (r *meshRun) attempt(live []int) (res verify.Result, died bool, err error) {
	res.Schedulable = true
	n := len(live)
	nodes := make([]Transport, n)
	for i, c := range live {
		nodes[i] = r.c.nodes[c]
	}
	job := r.job
	job.NumNodes = n
	job.Session = newSessionID()
	job.Peers, _ = meshPeers(nodes)
	poller := newMeshPoller(nodes)
	defer poller.close()
	// One Job, Control and Request per node: the Init round sends the
	// requests as Inits, every later round as polls. Workers read a Control
	// inside the call and never retain it.
	jobs, ctls, reqs := make([]Job, n), make([]Control, n), make([]Request, n)
	for i := range reqs {
		jobs[i] = job
		jobs[i].NodeID = i
		reqs[i] = Request{Kind: KindInit, Job: &jobs[i]}
	}
	poll := func(i int) *Request { return &reqs[i] }
	resps := make([]*Response, n)
	// The round's deaths come first: they restart the attempt, and a
	// refusal stands only in a round without them.
	var deaths []int
	var refused error
	for _, d := range poller.round(resps, nil, poll) {
		msg, ok := poller.errs[d].(workerErr)
		switch {
		case ok && msg == errDraining:
			nodes[d].Close()
		case ok:
			if refused == nil {
				refused = fmt.Errorf("dverify: node %d refused the job: %s", live[d], string(msg))
			}
			continue
		}
		deaths = append(deaths, d)
	}
	if deaths = foldLinkDown(resps, deaths, poller.errs); len(deaths) > 0 {
		r.fail(poller, live, nil, deaths)
		return res, true, nil
	}
	if refused != nil {
		r.finish(poller, live, resps)
		return res, false, refused
	}
	for i, resp := range resps {
		if resp.Proto != protoVersion {
			r.finish(poller, live, resps)
			return res, false, fmt.Errorf("dverify: node %d speaks protocol %d, coordinator %d (restart verifyd with the current build)",
				live[i], resp.Proto, protoVersion)
		}
	}

	for i := range reqs {
		reqs[i] = Request{Kind: KindPoll, Ctl: &ctls[i]}
	}
	// last holds each node's latest answer of the attempt. The snapshot
	// pointers stay valid until the node's next poll: workers double-buffer
	// their responses.
	last := make([]*Response, n)
	expect := make([]int, n)
	pending := make([]int, 0, n)
	// Each node ships to at most every peer: the fold's link list is sized
	// once per attempt.
	tr := meshTracker{wire: verify.WireStats{Links: make([]verify.LinkWire, 0, n*(n-1))}, live: live}
	rounds, level, bust := 0, 0, -1
	for {
		r.plan.fire(level, r.restarts)
		for i := range ctls {
			ctls[i] = Control{Level: level, Expect: expect[i]}
		}
		pending = append(pending[:0], poller.all...)
		for len(pending) > 0 {
			dead := foldLinkDown(resps, poller.round(resps, pending, poll), poller.errs)
			rounds++
			for i, resp := range resps {
				if resp != nil {
					last[i] = resp
				}
			}
			if len(dead) > 0 {
				r.rounds += rounds
				r.fail(poller, live, last, dead)
				return res, true, nil
			}
			// Poll again the workers whose answer was interim (no SentTo).
			left := pending[:0]
			for _, i := range pending {
				if len(resps[i].SentTo) == 0 {
					left = append(left, i)
				}
			}
			pending = left
		}
		tr.observe(resps)
		if bust = tr.bust(level, r.job.MaxStates); bust >= 0 || tr.haveViol || !nextRound(resps, expect, level) {
			break
		}
		level++
	}
	// The Finish round ends the session. The verdict is already determined,
	// so a death during it cannot change it: the node leaves the cluster,
	// and its last snapshot stands in — a worker changes state only inside
	// a poll, so it is the answer it would have given.
	for _, d := range r.finish(poller, live, resps) {
		resps[d] = last[d]
	}
	tr.observe(resps)
	res.Transitions, res.Wire, res.Depth = tr.transitions, tr.wire, level
	switch {
	case bust >= 0:
		res.Depth, err = bust-1, verify.ErrTooLarge
	case tr.haveViol:
		res.Schedulable, res.Violator = false, tr.violApp
	case tr.levels[level] == 0:
		res.Depth = level - 1 // the last round absorbed duplicates only
	}
	res.Levels = tr.levels[:max(res.Depth, bust)+1] // a bust's has the level that passed the budget
	for _, n := range res.Levels {
		res.States += n
	}
	foldMeshTrace(r.trace, resps, live, r.rounds+rounds+1)
	return res, false, err
}

// finish sends Finish to every node whose last answer speaks this
// protocol (resps; nil for a node that gave none), ending its session, and
// returns the nodes that died doing so: they leave the cluster with their
// causes.
func (r *meshRun) finish(p *meshPoller, live []int, resps []*Response) []int {
	idxs := make([]int, 0, len(resps))
	for i, resp := range resps {
		if resp != nil && resp.Proto == protoVersion {
			idxs = append(idxs, i)
		}
	}
	finish := Request{Kind: KindPoll, Ctl: &Control{Finish: true}}
	dead := p.round(resps, idxs, func(int) *Request { return &finish })
	for _, d := range dead {
		r.c.dead[live[d]] = p.errs[d]
	}
	return dead
}

// fail ends an attempt on the deaths of dead (attempt node numbers): they
// leave the cluster with their causes, the attempt's traffic is kept, per
// link between cluster nodes, from every node's last snapshot (last, nil
// before the first poll), and, when a node is left to run it, the restart
// is counted and traced. The restart itself is the next attempt.
func (r *meshRun) fail(p *meshPoller, live []int, last []*Response, dead []int) {
	for _, d := range dead {
		r.c.dead[live[d]] = p.errs[d]
	}
	var shipped verify.WireStats
	addShipments(&shipped, last, live)
	r.aborted.Add(shipped)
	if len(r.c.live()) == 0 {
		return
	}
	r.restarts++
	obsRecoveries.Inc()
	var deadSet []int
	for i, err := range r.c.dead {
		if err != nil {
			deadSet = append(deadSet, i)
		}
	}
	r.trace.AddFailover(r.restarts, deadSet)
}

// foldLinkDown turns worker-reported dead links into deaths, appended to
// the round's dead with their causes: a severed link is indistinguishable
// from (and treated as) the death of its far end, so the run converges on
// a surviving component instead of hanging on a partition. The reports of
// a node already dead are void — of two nodes reporting each other, the
// lower keeps its place. dead names each node once.
func foldLinkDown(resps []*Response, dead []int, errs []error) []int {
	for i, resp := range resps {
		if resp == nil || slices.Contains(dead, i) {
			continue
		}
		for _, l := range resp.LinkDown {
			if l.Peer >= 0 && l.Peer < len(resps) && !slices.Contains(dead, l.Peer) {
				errs[l.Peer] = errors.New(l.Cause)
				dead = append(dead, l.Peer)
			}
		}
	}
	return dead
}

// Fault-injection harness. A faultPlan arms deterministic faults the
// coordinator fires at exact points in the run: before it first polls a
// level ≥ atLevel (once the required number of restarts has already
// happened, for double-fault scripts), kill() severs a worker.
type faultPlan struct {
	faults []fault
}

type fault struct {
	// atLevel fires the fault before the first round of a level ≥ this
	// one.
	atLevel int
	// afterRestarts defers the fault until this many restarts have
	// happened (0 = fire on the first opportunity) — the double-fault
	// scripts use it to kill a survivor after the first restart.
	afterRestarts int
	// kill severs the target (closes its transport, kills its loopback
	// serve loop, or closes its TCP conns).
	kill  func()
	fired bool
}

// fire triggers every armed fault whose conditions are met.
func (p *faultPlan) fire(level, restarts int) {
	if p == nil {
		return
	}
	for i := range p.faults {
		f := &p.faults[i]
		if !f.fired && level >= f.atLevel && restarts >= f.afterRestarts {
			f.fired = true
			f.kill()
		}
	}
}
