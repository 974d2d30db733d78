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
// fixed-width fallback; see proto.go). Loopback mesh links hand the word
// batches over in memory and skip both. Wire-volume counters
// — including per-link breakdowns — flow back into verify.Result.Wire.
//
// A worker holds states in the form the kernel emits and the wire ships:
// flat []uint64, Expander.StateWords() words per state (8 bytes on the
// one-word encoding, 32 on the wide one), in buckets, batches, send
// buffers, send filters and checkpoint segments. It expands a chunk with
// Expander.ExpandWords, appends every successor to its owner's buffer, its
// own included, and hands each batch, a peer's or its own, to the one
// absorb, which inserts it through StateSet.AddWords — the local drivers'
// chunked insert. verify.PackedState appears only where one state crosses
// the control plane: a violation, the skip bound. Between jobs a worker
// keeps its visited table, two frontier buffers and a free list of 32 KB
// batches: memory that follows the widest level, not the run.
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
