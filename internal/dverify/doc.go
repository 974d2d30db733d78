// Package dverify distributes the slot-sharing verification of
// internal/verify across worker nodes: the packed state space is
// partitioned by hash — each node owns a contiguous range of the 64 hash
// shards — and every node expands its own frontier through the shared
// expansion core, routing successor states to their owners.
//
// One frontier exchange drives that partitioning: a worker mesh that
// keeps the coordinator out of the data path. Workers hold one direct link
// per peer — in-process channels on a loopback cluster, dial-out TCP
// connections negotiated at job setup for verifyd fleets — and ship
// level-tagged successor batches straight to their shard owners while the
// coordinator runs a thin control plane (session setup, one round per BFS
// level, result aggregation; the round protocol and why it is exact are at
// the end of this comment).
//
// Every routed state crosses its link; owners dedup on absorb. A TCP link
// ships a batch as a version byte and the states' raw words — the byte
// layout of a checkpoint segment, so the wire and the disk share one format
// and one decoder (see proto.go). Loopback mesh links hand the word batches
// over in memory. Wire-volume counters — including per-link breakdowns —
// flow back into verify.Result.Wire.
//
// A worker holds states in the form the kernel emits and the wire ships:
// flat []uint64, Expander.StateWords() words per state (8 bytes on the
// one-word encoding, 32 on the wide one), in buckets, batches, send
// buffers and checkpoint segments. It expands a chunk with
// Expander.ExpandWords, appends every successor to its owner's buffer, its
// own included, and hands each batch, a peer's or its own, to the one
// absorb, which inserts it through StateSet.AddWords — the local drivers'
// chunked insert. verify.PackedState appears only where one state crosses
// the control plane: a violation. Between jobs a worker keeps its visited
// table, two frontier buffers and a free list of 32 KB batches: memory that
// follows the widest level, not the run.
//
// Both packed encodings flow through the same worker, so narrow and wide
// slots verify with bit-identical semantics to the local searches: the
// verdict always matches, exhaustively-searched (schedulable) runs report
// the same state/transition/depth counts, and a violating run reports the
// same minimal violator as the local parallel search (minimum violating
// packed state of the first violating level).
//
// Coordinator communication goes through the Transport interface. Two
// implementations exist: Loopback (in-process channel workers, for tests
// and single-machine multi-worker runs) and the TCP/gob client returned
// by Dial, served by the cmd/verifyd worker daemon. Config.MaxStates is a
// per-node budget in distributed runs — it models per-node memory — so a
// cluster of k nodes verifies slots up to k times larger than one node
// admits.
//
// One barrier per level, as in the local lanes (verify.runLanes). The
// coordinator polls every worker with a level L and Expect, the number of
// L-tagged states the peers shipped to it in the previous round. The worker
// absorbs until it has all of them, blocking on its inbox, then expands its
// L bucket, routing successors to their owners and committing its own L+1
// successors as it goes, and answers with what it shipped to each peer
// (SentTo), its own L+1 commits (Next) and the minimum violator of its part
// of L. The coordinator folds the answers into the next round's Expects;
// nothing shipped and nothing committed ends the search. A worker whose
// poll budget runs out first answers an interim snapshot and is polled
// again at the same level, so a slow level never looks like a dead node.
//
// One ordering rule keeps that exact, and it is local: a peer's batch
// commits in the round of its level. An L+1 batch that arrives in round L —
// its sender finished L first, or it overtook the last L states on another
// link, which may still bring the same state at its true depth — waits in
// one list until round L+1 begins. Under that rule a commit's tag is its
// BFS level, so per-level counts, Depth and the violator are those of the
// level-synchronous local searches: a worker that finds a violator in L
// stops routing and sweeps the rest of L for a smaller one, and the
// coordinator ends the run on the verify.LessState minimum across workers —
// no worker expands L+1 before L's round ends.
package dverify
