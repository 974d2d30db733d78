// Package dverify distributes the slot-sharing verification of
// internal/verify across worker nodes: the packed state space is
// partitioned by hash — node i of n owns the contiguous range
// [i·64/n, (i+1)·64/n) of the 64 hash shards — and every node runs the
// local parallel search's level
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
// dedup on absorb. A TCP link ships a batch as the states' raw words, in a
// format protoVersion names (see proto.go); loopback links hand the word
// batches over in memory. Each worker reports the states it shipped to
// each peer, and the coordinator derives verify.Result.Wire from those
// counts, per-link breakdown included.
//
// States cross the package as flat []uint64, one word each, and
// verify.PackedState only where one state crosses the control plane: a
// violation. Verdicts, the exhaustive counts of schedulable runs and the violator of a violating one (the
// minimum violating packed state of the first violating level) are the
// local parallel search's.
//
// Coordinator communication goes through the Transport interface: Loopback
// (in-process channel workers) or the TCP/gob client returned by Dial,
// served by the cmd/verifyd worker daemon. Config.MaxStates bounds the
// question as it does locally: after each level round the coordinator busts
// the run on the nodes' summed commits (the levels 0..D rule of
// verify.Config), and a node that passes the budget on its own stores
// nothing more — its memory bound — and only sweeps its level for a
// violator. Config.Workers is every node's lane count.
//
// One barrier per level, as in the local lanes. The coordinator polls
// every worker with a level L and Expect, the number of L-tagged states the
// peers shipped to it in the previous round. The worker absorbs until it
// has all of them, blocking on its inbox, then runs its lanes' rounds over
// its L states, committing its own L+1 successors and shipping the others',
// and answers with what it shipped to each peer (SentTo), its commits per
// level (FreshByLevel, L+1 among them) and the minimum violator of its part
// of L. The coordinator folds the answers into the next round's Expects;
// nothing shipped and nothing committed ends the search. A worker whose poll
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
// Deaths are decided in one place, and a recovery is a run. A worker
// reports a dead mesh link with its cause in its next answer
// (Response.LinkDown), never as its own error. The coordinator counts a
// transport error, silence past meshDeathTimeout or such a report, at Init
// or in any round, a worker Err in a level round and a draining worker at
// Init as the node's death: the node leaves the cluster for the life of
// the Runner hook (a draining node's transport is closed, so its drain can
// finish), and the run starts over on the survivors with a fresh Init — a
// new session, NumNodes the survivors, renumbered nodes and the contiguous
// table of the new count. A run is exact on any node count (the
// Loopback(1/2/4) matrices hold it to the local search), so a restarted run
// is exact too; with no survivor left the run ends in an error naming the
// lowest dead node and its cause. A worker's other Err at Init is a refusal
// of the job — the worker is busy with another coordinator or speaks
// another protocol — and, in an Init round without deaths, ends that run
// in an error naming the node, which stays in the cluster.
package dverify
