package dverify

import (
	"fmt"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// Wire protocol of the distributed search: the coordinator drives every
// worker node through a strict Init → Poll* request/response session (the
// last Poll carries Finish), while the workers exchange frontiers among
// themselves — PeerHello, then Frames, on one dialed link per peer. All
// types are plain data so the TCP transport can gob-encode them without
// registration; the loopback transport passes them by pointer.

// protoVersion guards the gob envelope. The batch format's version byte
// covers only batch payloads; a field renamed on Request/Response would
// otherwise be dropped silently by gob in a mixed-version cluster (a stale
// verifyd daemon), corrupting the search with no error. KindInit therefore
// carries the coordinator's version in Job.Proto and the node echoes its
// own in Response.Proto, so either side rejects a mismatch loudly before
// any frontier is exchanged. Bump it when a Kind, a Job/Request/Response
// field, a batch format or the packed-state layout changes or goes. Version
// 18 ships every state as one word — the multi-word layout is gone and
// Response.ViolState is a uint64; version 17 drops the checkpoint fields of
// Job, Recover and Response; what each earlier version was is in
// CHANGES.md.
const protoVersion = 18

// Kind discriminates coordinator requests.
type Kind uint8

const (
	// KindInit ships the job to a node, resetting any previous one.
	KindInit Kind = iota + 1
	// KindPoll is one round of one BFS level: the request names the level
	// and the states the worker is owed for it (Control); the worker
	// absorbs them, expands its bucket of the level, exchanging successors
	// over its mesh links, and answers with a counter snapshot — an interim
	// one when a short time budget runs out first.
	KindPoll
	// KindPeerHello opens a worker↔worker mesh link: it is the first value
	// on a dialed peer connection (never sent on a coordinator session),
	// followed by a stream of Frame values.
	KindPeerHello
)

// Job describes one verification run from a single worker node's
// perspective. The verification fields mirror verify.Config; Distributed is
// a coordinator-side concern and never crosses the wire.
type Job struct {
	// Proto is the coordinator's protocol version (protoVersion); nodes
	// reject jobs from a different one.
	Proto int
	// Profiles is the application set under verification, by value so the
	// gob stream is self-contained.
	Profiles []switching.Profile
	// NumNodes and NodeID place this node in the cluster.
	NumNodes int
	NodeID   int
	// Owners is the shard-ownership table: entry s names the node owning
	// hash shard s (len verify.NumShards). A run starts from the contiguous
	// default, node i owning [i·64/NumNodes, (i+1)·64/NumNodes); a Recover
	// order replaces it.
	Owners []uint8

	Policy            sched.PreemptionPolicy
	NondetTies        bool
	SymmetryReduction bool
	// MaxStates is the per-node visited budget (per-node memory model):
	// the aggregate capacity of a run is NumNodes × MaxStates.
	MaxStates int
	// Workers is the node's lane count, verify.Config.Workers; 0 is worked
	// out where the node runs (GOMAXPROCS, shared by the nodes of one
	// process). It changes no verdict, exhaustive count or violator.
	Workers int

	// Session identifies this run's mesh rendezvous — the node opens (or
	// accepts) one data link per peer at Init: peer links carry it so a
	// daemon serving several coordinators never cross-wires links.
	Session uint64
	// RunID is the telemetry correlation ID minted where the run entered
	// the system (admission service or CLI). Purely observational: it
	// never affects the search, and nodes only log it.
	RunID string
	// Peers are the advertised addresses of every node in the cluster,
	// indexed by node ID (nil for in-process loopback meshes, where links
	// are channels). Node i dials Peers[j] for every j ≠ i.
	Peers []string
}

// Request is one coordinator→node message.
type Request struct {
	Kind Kind
	// Job accompanies KindInit.
	Job *Job
	// Ctl accompanies KindPoll.
	Ctl *Control
	// Hello accompanies KindPeerHello.
	Hello *PeerHello
}

// Control is the coordinator's order for one KindPoll; the package comment
// has the round protocol it drives.
type Control struct {
	// Level is the BFS level the worker expands this round, and Expect the
	// number of Level-tagged states its peers shipped it in the previous
	// round (their SentTo entries for it): the worker expands once it has
	// absorbed all of them.
	Level  int
	Expect int
	// Finish ends the session's search: the worker tears down its mesh
	// links and answers with its final counter snapshot.
	Finish bool
	// Recover, when non-nil, orders the worker into a new era: drop its
	// search state, adopt the new ownership table and seed the initial
	// state if it owns it, answering without expanding. The run resumes
	// with a round at Level 0, Expect 0.
	Recover *Recover
}

// Recover is the coordinator's takeover order after worker deaths. Every
// surviving worker performs the same reset — the one that starts a run —
// under Owners, and the search restarts from the initial state.
type Recover struct {
	// Era is the new epoch of the run; batches tagged with older eras are
	// dropped on receipt.
	Era int
	// Owners is the new shard-ownership table (len 64).
	Owners []uint8
	// Dead is the complete dead set after this recovery; workers ship
	// nothing to these nodes (routing follows Owners).
	Dead []int
}

// PeerHello identifies a dialed worker↔worker mesh link.
type PeerHello struct {
	Proto    int
	Session  uint64
	From, To int
}

// Frame is one level-tagged frontier batch on a TCP mesh link, following
// the PeerHello on the same gob stream. Batch is encodeBatch's encoding.
// Era tags the sender's recovery era (0 before any recovery); receivers
// in another era drop the frame.
type Frame struct {
	Level int
	Era   int
	Batch []byte
}

// Response is one node→coordinator message. Err is the worker-side failure
// channel; when non-empty every other field is meaningless.
type Response struct {
	Err string

	// Proto echoes the node's protocol version on KindInit replies; the
	// coordinator rejects nodes speaking another version (a PR-3 verifyd
	// has no such field and presents as 0).
	Proto int

	// Snapshot fields (KindPoll responses). All counters are cumulative
	// over the session, so the coordinator's latest round is always a
	// complete picture.
	//
	// Transitions counts the successors generated (pre-dedup), mirroring
	// the local searches.
	Transitions int
	// Routed counts the foreign successors the node shipped onto its mesh
	// links, RawBytes their fixed-width size and WireBytes the bytes the
	// links carried (on TCP, RawBytes plus one version byte per batch).
	Routed    int
	RawBytes  int
	WireBytes int
	// Fresh counts the states committed to this node's visited partition
	// (on a KindInit reply: the initial state when this node owns it).
	Fresh int
	// TooLarge reports that the per-node visited budget was exhausted; the
	// node stopped expanding and absorbing.
	TooLarge bool

	// Viol flags a deadline miss in the polled level: ViolState is the
	// minimum violating state of this node's part of the level (the
	// cross-node tie-break key) and ViolApp the application that missed.
	Viol      bool
	ViolState verify.PackedState
	ViolApp   int

	// SentTo and Next answer a finished round of level L: SentTo[d] counts
	// the L+1-tagged states this node shipped to node d in the round (its
	// own entry stays 0: self-owned successors cross no link), Next the
	// L+1 states it has committed. SentTo is empty on an interim answer —
	// the level unfinished when the poll budget ran out — and on Init,
	// Recover and Finish replies.
	SentTo []int
	Next   int
	// MaxFresh is the deepest level at which this node committed a fresh
	// state (the node's contribution to Result.Depth).
	MaxFresh int
	// FreshByLevel counts the fresh states this node committed per BFS
	// level (cumulative, like the other snapshot counters). The
	// coordinator folds these into the run trace: summed across nodes,
	// level L's count is the size of the global BFS frontier at depth L.
	FreshByLevel []int
	// Links are this node's cumulative per-destination wire counters.
	Links []verify.LinkWire

	// LinkDown lists the peers this worker can no longer reach (send or
	// receive failures on the mesh link), cumulative within an era. A dead
	// link is always reported here, never through Err: what it leads to is
	// the coordinator's decision.
	LinkDown []DeadLink
}

// DeadLink is one worker's report of a failed mesh link: the peer at its
// far end and what failed.
type DeadLink struct {
	Peer  int
	Cause string
}

// Frontier batch format: a version byte naming the format of the rest,
// then the states. There is one format, codecRaw: the states' words
// verbatim, little-endian, one word per state — the expander's AppendWords
// layout, decoded by DecodeWords. The byte stays so that another format
// can return behind a measured row;
// any other value is refused by name, among them 1 (protocol 11's sorted
// varint-delta batches) and 2 (protocol 9's DEFLATE ones).
const codecRaw byte = 0

// encodeBatch appends the batch encoding of states to dst.
func encodeBatch(exp *verify.Expander, dst []byte, states []uint64) []byte {
	return exp.AppendWords(append(dst, codecRaw), states)
}

// decodeBatch appends the states of one encoded batch to out. A zero-length
// batch holds no states. DecodeWords refuses a body off the state stride
// and any state Expander.CheckWords refuses: the all-zero state (the
// visited sets' sentinel) and states outside the set's layout.
func decodeBatch(exp *verify.Expander, batch []byte, out []uint64) ([]uint64, error) {
	if len(batch) == 0 {
		return out, nil
	}
	if batch[0] != codecRaw {
		return out, fmt.Errorf("dverify: unknown frontier codec version %d", batch[0])
	}
	return exp.DecodeWords(batch[1:], out)
}
