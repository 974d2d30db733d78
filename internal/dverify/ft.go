package dverify

// Fault tolerance: shard-ownership tables, the worker's side of a
// recovery, and the fault-injection harness. The coordinator's side — what
// a death leads to — is meshFT.recover.
//
// Ownership tables. Every worker routes through a 64-entry table (shard →
// owning node) that its Job carries: a run starts from the contiguous
// default — node i owns shards [i·64/n, (i+1)·64/n) — and each recovery
// replaces it with a table in which the survivors own a dead node's
// shards; every worker routes by the new table from the next era on.
//
// Recovery = restart on the survivors. The coordinator sends every
// survivor one Recover order. Each performs the same uniform reset — drop
// all search state (visited tables, frontiers, counters, in-flight
// batches), adopt the new table — and the initial state's new owner seeds
// it: the run starts over at level 0 on the survivors. Exactness follows
// from the reset being the one that starts every run. The resumed round
// expects nothing: every round count is zeroed in the same reset, no
// worker expands before all have reset, and post-recovery traffic never
// routes to dead nodes. Restarting is the only recovery: rolling back to
// per-level checkpoint segments lost every measured pair to it
// (DESIGN.md, "Recovery restarts the search").

import (
	"fmt"
	"slices"
	"time"

	"tightcps/internal/verify"
)

// meshDeathTimeout bounds every coordinator round: a worker that has not
// answered by then is dead to the run — recovered from under fault
// tolerance, named in the run's error without it. Workers answer a poll
// within meshPollBudget, so only a dead, stopped or partitioned node trips
// it. Package variable so tests can shrink it.
var meshDeathTimeout = 30 * time.Second

// defaultOwners builds the contiguous ownership table: node i owns shards
// [i·64/n, (i+1)·64/n).
func defaultOwners(n int) []uint8 {
	t := make([]uint8, verify.NumShards)
	for s := range t {
		t[s] = uint8(s * n / verify.NumShards)
	}
	return t
}

// checkOwners refuses an ownership table — a Job's or a Recover order's —
// that does not name one of the n nodes for every shard.
func checkOwners(owners []uint8, n int) error {
	if len(owners) != verify.NumShards || int(slices.Max(owners)) >= n {
		return fmt.Errorf("dverify: an ownership table of %d entries does not map %d shards onto %d nodes", len(owners), verify.NumShards, n)
	}
	return nil
}

// reassignOwners maps every shard owned by a dead node onto the alive
// nodes, round-robin in shard order so takeover load spreads evenly.
// Returns the new table and the number of shards that moved.
func reassignOwners(owners []uint8, alive []bool) ([]uint8, int) {
	var live []uint8
	for i, ok := range alive {
		if ok {
			live = append(live, uint8(i))
		}
	}
	next, moved := 0, 0
	out := append([]uint8(nil), owners...)
	for s, o := range out {
		if !alive[o] {
			out[s] = live[next%len(live)]
			next++
			moved++
		}
	}
	return out, moved
}

// Fault-injection harness. A faultPlan arms deterministic faults the
// coordinator fires at exact points in the run: before it first polls a
// level ≥ atLevel (once the required number of recoveries has already
// happened, for double-fault scripts), kill() severs a worker.
type faultPlan struct {
	faults []fault
}

type fault struct {
	// atLevel fires the fault before the first round of a level ≥ this
	// one.
	atLevel int
	// afterRecoveries defers the fault until this many recoveries have
	// completed (0 = fire on the first opportunity) — the double-fault
	// scripts use it to kill a survivor mid-takeover.
	afterRecoveries int
	// kill severs the target (closes its transport, kills its loopback
	// serve loop, or closes its TCP conns).
	kill  func()
	fired bool
}

// fire triggers every armed fault whose conditions are met.
func (p *faultPlan) fire(level, recoveries int) {
	if p == nil {
		return
	}
	for i := range p.faults {
		f := &p.faults[i]
		if !f.fired && level >= f.atLevel && recoveries >= f.afterRecoveries {
			f.fired = true
			f.kill()
		}
	}
}

// recoverTo executes the coordinator's takeover order: the uniform reset
// every survivor performs in lockstep — the same resetEra that starts a
// run — under the new ownership table, and the initial state seeded on its
// new owner. The session survives it: wire history and the mesh links.
// Batches of the old era still queued are dropped by their tag when the
// next round drains them.
func (w *meshWorker) recoverTo(rec *Recover) {
	if rec.Era <= w.era {
		return
	}
	if err := checkOwners(rec.Owners, w.n); err != nil {
		w.err = err
		return
	}
	w.resetEra(rec.Era, rec.Owners, rec.Dead)
	w.seed()
}
