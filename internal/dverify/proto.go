package dverify

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// protoVersion guards the gob envelope. The batch codec's version byte
// covers only batch payloads; a field renamed on Request/Response would
// otherwise be dropped silently by gob in a mixed-version cluster (a stale
// verifyd daemon), corrupting the search with no error. KindInit therefore
// carries the coordinator's version in Job.Proto and the node echoes its
// own in Response.Proto, so either side rejects a mismatch loudly before
// any frontier is exchanged. Bump it when a Kind, a Job/Request/Response
// field, a codec byte or the packed-state layout changes or goes. Version
// 10 has the raw and delta batch codecs, one search goroutine per node, no
// coordinator relay, and lane clocks fitted to the job's largest r; what
// each earlier version was is in CHANGES.md.
const protoVersion = 10

// Kind discriminates coordinator requests.
type Kind uint8

const (
	// KindInit ships the job to a node, resetting any previous one.
	KindInit Kind = iota + 1
	// KindPoll is one control-plane epoch: the request carries the
	// coordinator's latest milestone knowledge (Control), the worker
	// expands and exchanges frontiers over its mesh links until it has
	// news for the coordinator (or a short time budget runs out) and
	// answers with a counter snapshot.
	KindPoll
	// KindPeerHello opens a worker↔worker mesh link: it is the first value
	// on a dialed peer connection (never sent on a coordinator session),
	// followed by a stream of Frame values.
	KindPeerHello
)

// Job describes one verification run from a single worker node's
// perspective. The verification fields mirror the verdict-relevant subset
// of verify.Config; Workers, Trace and Distributed are coordinator-side
// concerns and never cross the wire.
type Job struct {
	// Proto is the coordinator's protocol version (protoVersion); nodes
	// reject jobs from a different one.
	Proto int
	// Profiles is the application set under verification, by value so the
	// gob stream is self-contained.
	Profiles []switching.Profile
	// NumNodes and NodeID place this node in the cluster. Shard ownership
	// follows Owners when present; otherwise the node owns the default
	// contiguous range [NodeID·64/NumNodes, (NodeID+1)·64/NumNodes).
	NumNodes int
	NodeID   int
	// Owners, when non-nil, is the explicit shard-ownership table: entry s
	// names the node owning hash shard s (len 64). The coordinator rewrites
	// it on recovery so survivors take over a dead node's shards.
	Owners []uint8

	MaxDisturbances   int
	Policy            sched.PreemptionPolicy
	NondetTies        bool
	SymmetryReduction bool
	// MaxStates is the per-node visited budget (per-node memory model):
	// the aggregate capacity of a run is NumNodes × MaxStates.
	MaxStates int

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

	// FT enables fault tolerance: the worker checkpoints completed levels
	// (when CheckpointDir is set), tags mesh batches with its era, and
	// reports link failures instead of poisoning the run.
	FT bool
	// CheckpointDir is where the worker persists per-(shard,level)
	// checkpoint segments; empty disables checkpointing (recovery then
	// degrades to a full restart on the survivors).
	CheckpointDir string
	// Era and Cut accompany a recovery KindInit to a late-joining
	// replacement worker: Era > 0 means "join the run in progress" — the
	// worker restores its owned shards from checkpoint segments up to
	// level Cut instead of seeding the initial state.
	Era int
	Cut int
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

// Control is the coordinator's milestone knowledge, piggybacked on every
// KindPoll so workers can release deferred commits and skip doomed work.
// See the package comment for the invariants behind Final and Done.
type Control struct {
	// Final is the highest level whose bucket membership is final
	// everywhere: all messages tagged ≤ Final have been absorbed, so
	// arrivals tagged ≤ Final+1 may commit immediately.
	Final int
	// Done is the highest level fully expanded everywhere (informational;
	// workers gate commits on Final alone).
	Done int
	// HaveViol/ViolLevel/ViolState broadcast the minimum violation found
	// so far, letting workers skip states that cannot improve on it.
	HaveViol  bool
	ViolLevel int
	ViolState verify.PackedState
	// Finish ends the session's search: the worker tears down its mesh
	// links and answers with its final counter snapshot.
	Finish bool
	// Recover, when non-nil, orders the worker into a new era: roll back
	// to the recovery cut, adopt the new ownership table, restore owned
	// shards from checkpoint segments, and resume. Delivered on the first
	// KindPoll after the coordinator declares a worker dead.
	Recover *Recover
}

// Recover is the coordinator's takeover order after worker deaths. Every
// surviving worker performs the same global rollback: reset volatile
// search state, restore all shards it owns under Owners from checkpoint
// segments at levels ≤ Cut, and re-expand from level Cut. Cut < 0 means
// no usable checkpoint exists and the run restarts from the initial
// state.
type Recover struct {
	// Era is the new epoch of the run; batches tagged with older eras are
	// dropped on receipt.
	Era int
	// Owners is the new shard-ownership table (len 64).
	Owners []uint8
	// Cut is the highest checkpointed level consistent across the cluster.
	Cut int
	// Dead lists the node IDs declared dead this recovery (informational;
	// workers use Owners for routing).
	Dead []int
}

// PeerHello identifies a dialed worker↔worker mesh link.
type PeerHello struct {
	Proto    int
	Session  uint64
	From, To int
}

// Frame is one level-tagged frontier batch on a TCP mesh link, following
// the PeerHello on the same gob stream. Batch is frontierCodec-encoded.
// Era tags the sender's recovery era (0 before any recovery); receivers
// in a newer era drop the frame.
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
	// Routed and Filtered count the node's foreign successors: Routed were
	// shipped onto a mesh link, Filtered were suppressed by the
	// per-destination recent-state filter (the owner has provably seen
	// them). RawBytes is the fixed-width cost of all Routed+Filtered
	// states and WireBytes the bytes the links actually carried, so the
	// coordinator can report what the filter and the compressed codec
	// saved.
	Routed    int
	Filtered  int
	RawBytes  int
	WireBytes int
	// Fresh counts the states committed to this node's visited partition
	// (on a KindInit reply: the initial state when this node owns it, or
	// the states a replacement worker restored).
	Fresh int
	// TooLarge reports that the per-node visited budget was exhausted; the
	// node stopped expanding and absorbing.
	TooLarge bool

	// Viol flags a deadline miss; ViolLevel is the BFS level of the node's
	// minimum violation (level-first, then state — the first-violating-
	// level tie-break), ViolState the minimum violating state of this
	// node's partition at that level (the cross-node tie-break key) and
	// ViolApp the application that missed.
	Viol      bool
	ViolState verify.PackedState
	ViolApp   int
	ViolLevel int

	// SentByLevel and RecvByLevel count the states this node shipped to
	// and drained from its mesh links, indexed by the BFS level of the
	// states (self-owned successors never cross a link and are excluded
	// on both sides). The coordinator's epoch accounting declares a level
	// final when the cluster-wide sums match — the classic sent-vs-
	// absorbed termination criterion.
	SentByLevel []int
	RecvByLevel []int
	// Drained is the highest level L such that this node has expanded (or
	// deliberately skipped, under a violation bound) every state committed
	// to buckets 0..L. Capped at the node's final-level knowledge + 1.
	Drained int
	// Idle reports that the node has no expandable work, no deferred
	// arrivals and no buffered sends — quiescent under its current
	// milestone knowledge.
	Idle bool
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

	// Ckpt is the highest level fully persisted to checkpoint segments
	// (-1 when nothing is checkpointed or checkpointing is disabled).
	Ckpt int
	// LinkDown lists peer node IDs this worker can no longer reach (send
	// or receive failures on the mesh link). Cumulative; under FT a dead
	// link is reported here instead of poisoning the run via Err.
	LinkDown []int
}

// Frontier batch codec. Every batch opens with a version byte naming the
// format of the rest; decoders dispatch on it, so formats can coexist on
// one wire and the fixed-width PR-3 layout stays decodable forever.
//
//   - codecRaw: the states' words verbatim, little-endian, StateWords()
//     words per state — the legacy format, also the encoder's fallback when
//     delta coding would not shrink a (tiny) batch.
//   - codecDelta: states sorted by verify.LessState, then for every state
//     each word's difference to the previous state's same word, zigzag
//     varint coded. Sorting makes word 0 non-decreasing and packs the
//     field-structured states into short deltas.
//
// Sorting a batch is sound: absorb order within a level affects neither the
// visited partition nor the verdict (a batch carries one level's tag, and
// the minimum-violator tie-break is order-independent).
const (
	codecRaw   byte = 0
	codecDelta byte = 1
)

// frontierCodec encodes and decodes frontier batches for one node: flat
// words, words per state, in and out. The codecRaw format is exactly the
// expander's AppendWords/DecodeWords layout — one implementation, shared,
// so the two can never drift. The scratch buffer is reused across levels,
// so per-batch work allocates only when a batch outgrows every previous
// one. Not safe for concurrent use — each node owns one.
type frontierCodec struct {
	exp   *verify.Expander
	words int // significant words per state (exp.StateWords)

	buf bytes.Buffer // varint payload scratch (encode)
}

func newFrontierCodec(exp *verify.Expander) *frontierCodec {
	return &frontierCodec{exp: exp, words: exp.StateWords()}
}

// encode appends the batch encoding of states to dst. states is sorted in
// place (part of the format). An empty batch encodes to zero bytes.
func (c *frontierCodec) encode(states []uint64, dst []byte) []byte {
	if len(states) == 0 {
		return dst
	}
	c.exp.SortWords(states)
	c.buf.Reset()
	var tmp [binary.MaxVarintLen64]byte
	var prev verify.PackedState
	for i := 0; i < len(states); i += c.words {
		for k, w := range states[i : i+c.words] {
			d := int64(w - prev[k]) // exact signed delta mod 2^64
			c.buf.Write(tmp[:binary.PutUvarint(tmp[:], zigzag(d))])
			prev[k] = w
		}
	}
	payload := c.buf.Bytes()
	if len(payload) >= 8*len(states) {
		// Tiny or adversarial batch: fall back to the fixed-width format.
		return c.exp.AppendWords(append(dst, codecRaw), states)
	}
	dst = append(dst, codecDelta)
	return append(dst, payload...)
}

// decode appends the states of one encoded batch to out, dispatching on the
// version byte. A zero-length batch holds no states.
func (c *frontierCodec) decode(batch []byte, out []uint64) ([]uint64, error) {
	if len(batch) == 0 {
		return out, nil
	}
	version, payload := batch[0], batch[1:]
	switch version {
	case codecRaw:
		return c.exp.DecodeWords(payload, out)
	case codecDelta:
		return c.decodeDelta(payload, out)
	default:
		return out, fmt.Errorf("dverify: unknown frontier codec version %d", version)
	}
}

// decodeDelta reverses the sorted zigzag varint-delta payload. It refuses
// the all-zero state, which no encoding produces: the visited sets reserve
// it as their empty-slot sentinel.
func (c *frontierCodec) decodeDelta(payload []byte, out []uint64) ([]uint64, error) {
	var prev verify.PackedState
	for len(payload) > 0 {
		for k := 0; k < c.words; k++ {
			u, n := binary.Uvarint(payload)
			if n <= 0 { // the state's first k words go back out
				return out[:len(out)-k], fmt.Errorf("dverify: truncated varint in frontier batch (word %d)", k)
			}
			payload = payload[n:]
			prev[k] += uint64(unzigzag(u))
			out = append(out, prev[k])
		}
		if prev == (verify.PackedState{}) {
			return out[:len(out)-c.words], errors.New("dverify: frontier batch holds the all-zero state, which no encoding produces")
		}
	}
	return out, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
