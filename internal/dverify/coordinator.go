package dverify

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

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

// meshFT is the coordinator's death handling over one mesh run: who last
// checkpointed and answered what, and the current era and ownership table.
// Every run has one; on is set by FaultTolerantRunner, and a run without
// it recovers from a death by naming it. deadWire preserves evicted nodes'
// final wire totals — true traffic the rollback cannot re-attribute
// (survivors keep only their own wire counters).
type meshFT struct {
	on         bool
	poller     *meshPoller
	trace      *obs.Trace
	lastCkpt   []int
	lastResp   []*Response
	era        int
	owners     []uint8
	deadWire   verify.WireStats
	recoveries int
}

func newMeshFT(on bool, owners []uint8, poller *meshPoller, trace *obs.Trace) *meshFT {
	n := len(poller.alive)
	ft := &meshFT{
		on:       on,
		poller:   poller,
		trace:    trace,
		lastCkpt: make([]int, n),
		lastResp: make([]*Response, n),
		owners:   owners,
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
			ft.lastResp[i] = r
		}
	}
}

// foldLinkDown turns worker-reported dead links into deaths, appended to
// the round's dead: a severed link is indistinguishable from (and treated
// as) the death of its far end, so the run converges on a surviving
// component instead of hanging on a partition. The report's cause becomes
// the far end's, unless it died of its own in the round.
func (ft *meshFT) foldLinkDown(resps []*Response, dead []int) []int {
	p := ft.poller
	for i, r := range resps {
		if r == nil || !p.alive[i] {
			continue
		}
		for _, l := range r.LinkDown {
			if l.Peer >= 0 && l.Peer < len(p.alive) && p.alive[l.Peer] && !slices.Contains(dead, l.Peer) {
				p.errs[l.Peer] = errors.New(l.Cause)
				dead = append(dead, l.Peer)
			}
		}
	}
	return dead
}

// recover is what a death leads to, and the only place that decides it.
// Without fault tolerance that is the error the run ends in, naming the
// lowest dead node and its cause. With it, it is the takeover loop: each
// lap evicts the newly dead, reassigns their shards to the survivors, and
// sends every survivor one Recover order to roll back to the deepest cut
// every relevant checkpoint supports. Deaths during that round feed the
// next lap: the double-fault case is just a second lap. It returns the
// level the run resumes at, the last lap's cut (0 when there was none).
// dead names live nodes, each once: a round reports only nodes it polled,
// and foldLinkDown adds only live nodes not named yet.
func (ft *meshFT) recover(resps []*Response, dead []int) (int, error) {
	p := ft.poller
	if !ft.on {
		return 0, p.deathOf(dead)
	}
	resume := 0
	for len(dead) > 0 {
		cut := 1 << 30
		for _, d := range dead {
			p.evict(d)
			if s := ft.lastResp[d]; s != nil {
				ft.deadWire.Add(verify.WireStats{
					RoutedStates: s.Routed,
					RawBytes:     s.RawBytes,
					WireBytes:    s.WireBytes,
				})
			}
			// The cut can be no deeper than what the dead node persisted:
			// its shards restore from its segments.
			cut = min(cut, ft.lastCkpt[d])
		}
		var survivors, deadSet []int
		for i, ok := range p.alive {
			if ok {
				survivors = append(survivors, i)
				// Survivors can restore only what they persisted themselves.
				cut = min(cut, ft.lastCkpt[i])
			} else {
				deadSet = append(deadSet, i)
			}
		}
		if len(survivors) == 0 {
			return 0, errors.New("dverify: every worker dead; run unrecoverable")
		}
		owners, moved := reassignOwners(ft.owners, p.alive)
		ft.owners = owners
		ft.era++
		recCtl := Control{Recover: &Recover{Era: ft.era, Owners: owners, Cut: cut, Dead: deadSet}}
		next := p.round(resps, survivors, func(int) *Request {
			return &Request{Kind: KindPoll, Ctl: &recCtl}
		})
		for _, i := range survivors {
			if r := resps[i]; r != nil {
				ft.lastCkpt[i] = cut
				ft.lastResp[i] = r
			}
		}
		ft.recoveries++
		obsRecoveries.Inc()
		obsShardsReassigned.Add(uint64(moved))
		ft.trace.AddFailover(ft.era, deadSet, cut, moved)
		resume = max(cut, 0)
		dead = ft.foldLinkDown(resps, next)
	}
	return resume, nil
}

// verifyMesh drives the distributed search: Init wires the worker↔worker
// links, then the coordinator runs one round per BFS level — every worker
// polled at the level with the states it is owed for it, and polled again
// while its answer is interim — until a round finds a violation, trips a
// budget or leaves the next level empty, and a Finish round collects final
// counters. trace (nil-safe) gains the per-level frontier sizes (from the
// workers' FreshByLevel snapshots), one NodeSpan per worker and the round
// count.
//
// Deaths — a transport error, a worker Err, no answer within
// meshDeathTimeout, or a peer's LinkDown report — go to meshFT.recover: with
// faultTolerance (FaultTolerantRunner) the run completes with the exact verdict
// as long as at least one worker survives each takeover, without it the run
// ends in an error naming the node and the cause. Either way a poll round
// returns. The Init round is fail-fast in both modes — fault tolerance
// covers the run, not its setup. plan (nil-safe) is the deterministic
// fault-injection harness; its kills fire before the rounds of given levels.
func verifyMesh(job Job, faultTolerance bool, nodes []Transport, peers []string, trace *obs.Trace, plan *faultPlan) (verify.Result, error) {
	res := verify.Result{Schedulable: true, Bounded: job.MaxDisturbances > 0}
	job.Session = newSessionID()
	job.Peers = peers
	if job.CheckpointDir != "" {
		// Coordinator-side sweep of the session's segments: covers runs
		// where no worker reached a clean Finish (shared-filesystem
		// clusters; on remote workers this is a no-op locally and the
		// daemons clean up on their next session).
		defer os.RemoveAll(ckptSessionDir(job.CheckpointDir, job.Session))
	}
	poller := newMeshPoller(nodes)
	defer poller.close()
	// One Job, Control and Request per node: the Init round sends the
	// requests as Inits, every later round as polls. Workers read a Control
	// inside the call and never retain it.
	n := len(nodes)
	jobs, ctls, reqs := make([]Job, n), make([]Control, n), make([]Request, n)
	for i := range reqs {
		jobs[i] = job
		jobs[i].NodeID = i
		reqs[i] = Request{Kind: KindInit, Job: &jobs[i]}
	}
	poll := func(i int) *Request { return &reqs[i] }
	resps := make([]*Response, n)
	if dead := poller.round(resps, nil, poll); len(dead) > 0 {
		return res, poller.deathOf(dead)
	}
	for i, r := range resps {
		if r.Proto != protoVersion {
			return res, fmt.Errorf("dverify: node %d speaks protocol %d, coordinator %d (restart verifyd with the current build)",
				i, r.Proto, protoVersion)
		}
	}

	ft := newMeshFT(faultTolerance, job.Owners, poller, trace)
	for i := range reqs {
		reqs[i] = Request{Kind: KindPoll, Ctl: &ctls[i]}
	}
	expect := make([]int, n)
	pending := make([]int, 0, n)
	// Each node reports one wire counter per peer: the fold's link list is
	// sized once per run.
	tr := meshTracker{wire: verify.WireStats{Links: make([]verify.LinkWire, 0, n*(n-1))}}
	rounds, level := 0, 0
levels:
	for {
		plan.fire(level, ft.recoveries)
		for i := range ctls {
			ctls[i] = Control{Level: level, Expect: expect[i]}
		}
		pending = append(pending[:0], poller.all...)
		for len(pending) > 0 {
			dead := poller.round(resps, pending, poll)
			dead = ft.foldLinkDown(resps, dead)
			rounds++
			if len(dead) > 0 {
				// Without fault tolerance the run is poisoned and ends here;
				// surviving workers tear down when their session ends
				// (transport Close / next Init).
				resume, err := ft.recover(resps, dead)
				if err != nil {
					return res, err
				}
				level = resume
				clear(expect)
				continue levels
			}
			ft.note(resps)
			// Poll again the workers whose answer was interim (no SentTo).
			left := pending[:0]
			for _, i := range pending {
				if r := resps[i]; r != nil && len(r.SentTo) == 0 {
					left = append(left, i)
				}
			}
			pending = left
		}
		tr.observe(resps)
		if tr.haveViol || tr.tooLarge || !nextRound(resps, expect) {
			break
		}
		level++
	}
	// The Finish round ends the session. The verdict is already determined,
	// so a death during it cannot change it: the node's last snapshot stands
	// in — a worker changes state only inside a poll, so it is the answer it
	// would have given.
	finish := Request{Kind: KindPoll, Ctl: &Control{Finish: true}}
	for _, d := range poller.round(resps, nil, func(int) *Request { return &finish }) {
		resps[d] = ft.lastResp[d]
	}
	tr.observe(resps)
	res.States, res.Transitions = tr.fresh, tr.transitions
	res.Depth, res.Wire = tr.maxFresh, tr.wire
	res.Wire.Add(ft.deadWire)
	if tr.tooLarge && !tr.haveViol {
		// Report the partial exploration: budget-busted admission checks
		// still count their states and wire volume.
		return res, verify.ErrTooLarge
	}
	// Like the local search, a recorded violation is preferred over
	// ErrTooLarge when the budget trips: the verdict is sound, but on the
	// budget edge the violator may not be the level minimum a larger budget
	// would report.
	if tr.haveViol {
		res.Schedulable = false
		res.Violator = tr.violApp
		res.Depth = level
		res.States = statesThrough(resps, level)
	}
	foldMeshTrace(trace, resps, rounds+1, res.Depth)
	return res, nil
}
