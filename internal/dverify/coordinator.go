package dverify

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"tightcps/internal/obs"
	"tightcps/internal/verify"
)

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

// meshFT is the coordinator's death handling over one mesh run: who last
// checkpointed and answered what, the current era and ownership table, and
// the spare transports still available for adoption. Every run has one; a
// run without Job.FT recovers from a death by naming it. deadWire
// preserves evicted nodes' final wire totals — true traffic the rollback
// cannot re-attribute (survivors keep only their own wire counters).
type meshFT struct {
	job        Job // Init template for adopting replacement workers
	poller     *meshPoller
	trace      *obs.Trace
	lastCkpt   []int
	lastResp   []*Response
	era        int
	owners     []uint8
	spares     []Transport
	deadWire   verify.WireStats
	recoveries int
}

func newMeshFT(job Job, poller *meshPoller, trace *obs.Trace, spares []Transport) *meshFT {
	n := job.NumNodes
	ft := &meshFT{
		job:      job,
		poller:   poller,
		trace:    trace,
		lastCkpt: make([]int, n),
		lastResp: make([]*Response, n),
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
			ft.lastResp[i] = r
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
// error the run ends in, naming the lowest dead node and its cause. With
// it, it is the takeover loop: each iteration evicts the newly dead, adopts
// spares into the freed slots when available, reassigns orphaned shards to
// the survivors, rolls the cluster back to the deepest cut every relevant
// checkpoint supports, and issues the recovery in two phases — restore-Inits
// to adoptions, then Recover-tagged polls to survivors. Deaths during
// either feed the next iteration: the double-fault case is just a second
// lap. It returns the level the run resumes at, the last lap's cut (0 when
// there was none). dead names live nodes: a round reports only nodes it
// polled.
func (ft *meshFT) recover(resps []*Response, dead []int) (int, error) {
	p := ft.poller
	if !ft.job.FT {
		return 0, p.deathOf(dead)
	}
	adoptedNow := make([]bool, len(p.alive))
	resume := 0
	for len(dead) > 0 {
		cut := 1 << 30
		any := false
		for _, d := range dead {
			if !p.alive[d] {
				continue // duplicate report
			}
			any = true
			p.evict(d)
			adoptedNow[d] = false
			if s := ft.lastResp[d]; s != nil {
				ft.deadWire.Add(verify.WireStats{
					RoutedStates: s.Routed,
					RawBytes:     s.RawBytes,
					WireBytes:    s.WireBytes,
				})
				// Folded once; a replacement adopted into this slot must
				// not inherit (and re-fold) its predecessor's snapshot.
				ft.lastResp[d] = nil
			}
			// The cut can be no deeper than what the dead node persisted:
			// its shards restore from its segments.
			if ft.lastCkpt[d] < cut {
				cut = ft.lastCkpt[d]
			}
		}
		if !any {
			break
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
			return 0, errors.New("dverify: every worker dead and no spares left; run unrecoverable")
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
		var deadSet []int
		for i, ok := range p.alive {
			if !ok {
				deadSet = append(deadSet, i)
			}
		}
		// Adoption Inits go first and complete before any survivor receives
		// its Recover order, so every worker of the new era is registered
		// before the first one rolls back into it. A replacement dying (or
		// reporting a stale protocol) during its Init feeds the next lap
		// before the survivors ever saw this era.
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
					ft.lastResp[i] = r
					adoptedNow[i] = false
				}
			}
			if len(next) > 0 {
				dead = next
				continue
			}
		}
		recCtl := Control{Recover: &Recover{Era: ft.era, Owners: owners, Cut: cut, Dead: deadSet}}
		next := p.round(resps, survIdx, func(int) *Request {
			return &Request{Kind: KindPoll, Ctl: &recCtl}
		})
		for _, i := range survIdx {
			if r := resps[i]; r != nil && p.alive[i] {
				ft.lastCkpt[i] = cut
				ft.lastResp[i] = r
			}
		}
		next = append(next, ft.foldLinkDown(resps)...)
		ft.recoveries++
		obsRecoveries.Inc()
		obsShardsReassigned.Add(uint64(moved))
		ft.trace.AddFailover(ft.era, deadSet, cut, moved)
		resume = max(cut, 0)
		dead = next
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
// job.FT the run completes with the exact verdict as long as at least one
// worker (or adopted spare) survives each takeover, without it the run ends
// in an error naming the node and the cause. Either way a poll round
// returns. The Init round is fail-fast in both modes — fault tolerance
// covers the run, not its setup. plan (nil-safe) is the deterministic
// fault-injection harness; its kills fire before the rounds of given levels.
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

	var spares []Transport
	if plan != nil {
		spares = plan.spares
	}
	ft := newMeshFT(job, poller, trace, spares)
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
			dead = append(dead, ft.foldLinkDown(resps)...)
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
