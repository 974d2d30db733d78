package dverify

import (
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

// protoVersion guards the gob envelope and the batch format: a field
// renamed on Request/Response would otherwise be dropped silently by gob in
// a mixed-version cluster (a stale verifyd daemon), corrupting the search
// with no error. KindInit therefore carries the coordinator's version in
// Job.Proto and the node echoes its own in Response.Proto, and a mesh link
// opens with PeerHello.Proto, so either side rejects a mismatch loudly
// before any frontier is exchanged. Bump it when a Kind, a
// Job/Request/Response field, the batch format or the packed-state layout
// changes or goes. Version 21 drops Response.TooLarge: the coordinator
// derives a bust from FreshByLevel; version 20 drops every Response field
// another one determines, and the batch's version byte; what each earlier
// version was is in CHANGES.md.
const protoVersion = 21

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
	// NumNodes and NodeID place this node in the cluster. They also make
	// its ownership table: node i owns the contiguous hash shards
	// [i·64/NumNodes, (i+1)·64/NumNodes).
	NumNodes int
	NodeID   int

	Policy            sched.PreemptionPolicy
	NondetTies        bool
	SymmetryReduction bool
	// MaxStates is the run's visited budget, verify.Config.MaxStates. The
	// coordinator busts the run on the nodes' summed FreshByLevel; a node
	// holds its own count to it, its memory bound, and once past it stores
	// nothing more and only sweeps its level for a violator.
	MaxStates int
	// Workers is the node's lane count, verify.Config.Workers; 0 is worked
	// out where the node runs (its process's GOMAXPROCS). It changes no
	// verdict, exhaustive count or violator.
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
}

// PeerHello identifies a dialed worker↔worker mesh link.
type PeerHello struct {
	Proto    int
	Session  uint64
	From, To int
}

// Frame is one level-tagged frontier batch on a TCP mesh link, following
// the PeerHello on the same gob stream. A batch is the states' words
// verbatim, little-endian, one word per state (Expander.AppendWords,
// decoded by DecodeWords); protoVersion names that format.
type Frame struct {
	Level int
	Batch []byte
}

// Response is one node→coordinator message. Err is the worker-side failure
// channel; when non-empty every other field is meaningless. A snapshot
// states each fact once: every total the coordinator reports — fresh
// states, depth, a budget bust, the next level's commits, the states
// routed and their bytes — is derived from these fields (tracker.go).
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

	// ViolApp is the application that missed its deadline in the polled
	// level, −1 for none, and ViolState the minimum violating state of this
	// node's part of the level (the cross-node tie-break key).
	ViolState verify.PackedState
	ViolApp   int

	// SentTo answers a finished round of level L: SentTo[d] counts the
	// L+1-tagged states this node shipped to node d in the round (its own
	// entry stays 0: self-owned successors cross no link). SentTo is empty
	// on an interim answer — the level unfinished when the poll budget ran
	// out — and on Init and Finish replies.
	SentTo []int
	// FreshByLevel counts the fresh states this node committed per BFS
	// level.
	FreshByLevel []int
	// Shipped[d] counts the states this node shipped to node d over the
	// session (its own entry stays 0).
	Shipped []int

	// LinkDown lists the peers this worker can no longer reach (send or
	// receive failures on the mesh link), cumulative within the session. A
	// dead link is always reported here, never through Err: the coordinator
	// counts it as the far end's death.
	LinkDown []DeadLink
}

// DeadLink is one worker's report of a failed mesh link: the peer at its
// far end and what failed.
type DeadLink struct {
	Peer  int
	Cause string
}
