// Package dverify distributes the slot-sharing verification of
// internal/verify across worker nodes: the packed state space is
// partitioned by hash — each node owns the hash shards its ownership table
// names, a contiguous range of the 64 until a recovery hands a dead node's
// to the survivors — and every node runs the local parallel search's level
// round (verify.Lanes) over its own states, on lanes of its own, shipping
// the successors other nodes own straight to them.
//
// One frontier exchange drives that partitioning: a worker mesh that
// keeps the coordinator out of the data path. Workers hold one direct link
// per peer — in-process channels on a loopback cluster, dial-out TCP
// connections negotiated at job setup for verifyd fleets — and ship
// level-tagged successor batches to their shard owners while the
// coordinator runs a thin control plane (session setup, one round per BFS
// level, result aggregation; the round protocol and why it is exact are at
// the end of this comment). Every routed state crosses its link and owners
// dedup on absorb. A TCP link ships a batch as a version byte and the
// states' raw words (see proto.go); loopback links hand the word batches
// over in memory. Wire-volume counters, per-link breakdowns included, flow
// back into verify.Result.Wire.
//
// States cross the package as flat []uint64, one word each, and
// verify.PackedState only where one state crosses the control plane: a
// violation. Verdicts, the exhaustive counts of schedulable runs and the violator of a violating one (the
// minimum violating packed state of the first violating level) are the
// local parallel search's.
//
// Coordinator communication goes through the Transport interface: Loopback
// (in-process channel workers) or the TCP/gob client returned by Dial,
// served by the cmd/verifyd worker daemon. Config.MaxStates is a per-node
// budget — it models per-node memory — so a cluster of k nodes verifies
// slots up to k times larger than one node admits. Config.Workers is every
// node's lane count.
//
// One barrier per level, as in the local lanes. The coordinator polls
// every worker with a level L and Expect, the number of L-tagged states the
// peers shipped to it in the previous round. The worker absorbs until it
// has all of them, blocking on its inbox, then runs its lanes' rounds over
// its L states, committing its own L+1 successors and shipping the others',
// and answers with what it shipped to each peer (SentTo), its own L+1
// commits (Next) and the minimum violator of its part of L. The
// coordinator folds the answers into the next round's Expects; nothing
// shipped and nothing committed ends the search. A worker whose poll
// budget runs out first answers an interim snapshot and is polled again at
// the same level, so a slow level never looks like a dead node.
//
// One ordering rule keeps that exact, and it is local: a peer's batch
// commits in the round of its level. An L+1 batch that arrives in round L —
// its sender finished L first, or it overtook the last L states on another
// link, which may still bring the same state at its true depth — waits in
// one list until round L+1 begins. Under that rule a commit's tag is its
// BFS level, so per-level counts, Depth and the violator are those of the
// level-synchronous local searches: a worker that finds a violator in L
// stops routing and sweeps the rest of L for a smaller one, and the
// coordinator ends the run on the minimum violating state across workers —
// no worker expands L+1 before L's round ends.
//
// Deaths are decided in one place. A worker behaves the same with and
// without fault tolerance: it reports a dead mesh link with its cause in
// its next answer (Response.LinkDown), never as its own error, and obeys
// every Recover order. The coordinator's meshFT.recover decides what a
// death means: on a FaultTolerantRunner run the survivors take over
// the dead node's shards and restart the search from the initial state
// (ft.go); without it the run ends in an error naming the dead node and the cause.
package dverify
