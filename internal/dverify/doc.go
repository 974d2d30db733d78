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
// coordinator runs a thin control plane (session setup, epoch accounting,
// violation short-circuit, result aggregation). Levels are pipelined: a
// worker expands level L+1 states as they arrive while peers still drain
// level L, with termination detected from cluster-wide states-sent vs
// states-absorbed counts per epoch (the exactness invariants are at the
// end of this comment).
//
// TCP links are bandwidth-engineered: every node suppresses states it
// provably already routed to a destination (a fixed-size per-destination
// recent-state filter — misses are safe, owners dedup on absorb) and
// encodes each batch with a versioned codec (sorted varint-delta with a
// fixed-width fallback; see proto.go). Loopback mesh links hand decoded
// batches over in memory and skip both. Wire-volume counters
// — including per-link breakdowns — flow back into verify.Result.Wire.
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
// The worker mesh: the data plane of the distributed search without the
// coordinator in it. Workers hold one direct link per peer (channels for
// loopback clusters, dial-out TCP for verifyd fleets) and route successor
// batches straight to their shard owners; the coordinator is a thin
// control plane that polls counter snapshots, publishes level milestones
// and detects termination by epoch accounting (cluster-wide states sent
// vs absorbed per level).
//
// Levels are pipelined, not barriered: a worker expands level L+1 states
// as they arrive while peers are still draining level L. Exactness — the
// same verdict, exhaustive counts, depth and minimal violator as the
// local searches — is preserved by one commit rule: a state tagged with
// level t may enter the visited set only once every level ≤ t−1 is
// *final* (all states committed and all tagged-≤(t−1) messages absorbed).
// Under that rule a freshly committed state's tag always equals its true
// BFS level (a shorter path would mean the state was already committed
// when its earlier level was finalized), so per-level counts, Depth and
// the first-violating-level minimum-violator tie-break are bit-identical
// to the level-synchronous searches. Arrivals ahead of the rule are
// deferred, bounding the pipeline to one level of lookahead — the price
// of exactness, and exactly the overlap a barrier forbids.
//
// The coordinator advances two milestones from each epoch's snapshots:
//
//	final(L): done(L−1) ∧ Σ sent[L] == Σ recv[L]   (membership final)
//	done(L):  final(L) ∧ every worker drained ≤ L  (fully expanded)
//
// Both are evaluated over cumulative, monotone counters from one poll
// round, so a lagging message can only delay a milestone, never fake
// one. Termination: a violation is final once done reaches its level; a
// schedulable run ends when every worker is idle and the sent/recv sums
// match at every level (Mattern-style quiescence — any in-flight state
// leaves the sums unequal).
package dverify
