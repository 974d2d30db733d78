package dverify

// Fault tolerance: shard-ownership tables, checkpoint segments, the
// worker's side of a recovery, and the fault-injection harness. The
// coordinator's side — what a death leads to — is meshFT.recover.
//
// Ownership tables. Every worker routes through a 64-entry table (shard →
// owning node) that its Job carries: a run starts from the contiguous
// default — node i owns shards [i·64/n, (i+1)·64/n) — and each recovery
// replaces it with a table in which the survivors own a dead node's
// shards; every worker routes by the new table from the next era on.
//
// Checkpoint segments. A segment is the deterministic global object
// "(shard s, level l)": every state whose hash shard is s and whose BFS
// depth is exactly l, plus the count of transitions generated expanding
// those states. Which worker writes a segment is irrelevant — any two
// workers owning shard s when level l finalizes would write byte-wise
// identical payloads (a level's states are the same set on any owner and are
// sorted before writing) — so takeover needs no writer
// identity, and a crash mid-write leaves either a stale tmp file (ignored)
// or a complete renamed segment (valid). A worker writes a level's segments
// at the end of its round, when the level's membership and transitions are
// both final (poll). Files live under
// <CheckpointDir>/<session-hex>/seg-<level>-<shard>, written with the
// same tmp+rename discipline as mapping.Cache's shard files.
//
// Recovery = global rollback. The coordinator computes the cut — the
// minimum fully-checkpointed level over the dead and the survivors — and
// sends every survivor one Recover order with it. Each performs the same
// uniform reset: drop all volatile search state (buckets, counters,
// in-flight batches), restore all shards it owns under the new table from
// segments at levels ≤ cut, re-materialize the cut level as an expandable
// frontier, and resume. Exactness follows from the segments being exact
// level sets: the restored visited set is precisely the BFS closure
// through the cut, and re-expansion from the cut regenerates everything
// past it. The resumed round at the cut expects nothing: every round count
// is zeroed in the same reset, no worker expands before all have rolled
// back, and post-recovery traffic never routes to dead nodes.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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

// Checkpoint segment file format: a fixed header (magic, state count,
// transition count) followed by the level's states in the expander's
// AppendWords encoding, ascending verify.LessState order.
var segMagic = [8]byte{'t', 'c', 'p', 's', 's', 'e', 'g', '1'}

const segHeader = 24 // magic, state count, transition count

// ckptSessionDir is the per-run checkpoint directory.
func ckptSessionDir(dir string, session uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x", session))
}

func segPath(sessionDir string, level, shard int) string {
	return filepath.Join(sessionDir, fmt.Sprintf("seg-%d-%d", level, shard))
}

// ckptWriteHook, when non-nil, runs before each segment write; a non-nil
// return aborts the write and fails the worker — the crash-during-
// checkpoint tests inject faults here.
var ckptWriteHook func(node, level, shard int) error

// writeSegment persists one (shard, level) segment atomically
// (tmp+rename, like mapping.Cache shard files). states must already be
// sorted; trans is the transition count attributed to this segment.
func writeSegment(path string, states []uint64, trans int64, exp *verify.Expander) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	buf := append(make([]byte, 0, segHeader+8*len(states)), segMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(states)/exp.StateWords()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(trans))
	buf = exp.AppendWords(buf, states)
	_, werr := f.Write(buf)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readSegment loads one segment, returning its states (flat words) and
// transition count. A missing or malformed file is an error: segments are written
// for every owned shard (empty ones included), so absence means the
// checkpoint this worker was told to restore from does not exist. The
// header's count is checked against what the body holds by division — a
// product could wrap — before anything is allocated from it.
func readSegment(path string, exp *verify.Expander) ([]uint64, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < segHeader || [8]byte(b[:8]) != segMagic {
		return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: bad header", path)
	}
	n := binary.LittleEndian.Uint64(b[8:])
	trans := int64(binary.LittleEndian.Uint64(b[16:]))
	body := b[segHeader:]
	held := len(body) / (8 * exp.StateWords())
	if n != uint64(held) {
		return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: header claims %d states, body holds %d", path, n, held)
	}
	states, err := exp.DecodeWords(body, make([]uint64, 0, len(body)/8))
	if err != nil {
		return nil, 0, fmt.Errorf("dverify: checkpoint segment %s: %v", path, err)
	}
	return states, trans, nil
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

// writeLevel splits level l — the lanes' level, expanded — by hash shard
// and writes one segment per owned shard with the transitions its states
// generated (empty segments included — restore treats a missing file as a
// hard error, so absence is always detectable).
func (w *meshWorker) writeLevel(l int) error {
	var byShard [verify.NumShards][]uint64
	level, trans := w.lanes.AppendLevel(nil)
	for b := level; len(b) > 0; b = b[w.sw:] {
		sh := verify.ShardOf(w.exp.HashWords(b[:w.sw]))
		byShard[sh] = append(byShard[sh], b[:w.sw]...)
	}
	for sh := 0; sh < verify.NumShards; sh++ {
		if int(w.owners[sh]) != w.id {
			continue
		}
		if ckptWriteHook != nil {
			if err := ckptWriteHook(w.id, l, sh); err != nil {
				return err
			}
		}
		w.exp.SortWords(byShard[sh]) // canonical: any owner writes byte-identical files
		if err := writeSegment(segPath(w.ckptDir, l, sh), byShard[sh], trans[sh], w.exp); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the worker's search state from checkpoint segments:
// every shard it owns under the current table, levels 0..cut. Levels
// below the cut land in the visited set with their counters; the cut
// level additionally becomes the level to expand (its transitions are
// recounted by the re-expansion, so the segment's count is not added).
// cut < 0 means no usable checkpoint: the run restarts from the initial
// state. The era must be fresh (resetEra).
func (w *meshWorker) restore(cut int) error {
	if cut < 0 {
		w.seed()
		return nil
	}
	for l := 0; l <= cut; l++ {
		if l > 0 {
			w.lanes.Advance() // a level below the cut stays in the visited set only
		}
		var slabs [][]uint64
		n := 0
		for sh := 0; sh < verify.NumShards; sh++ {
			if int(w.owners[sh]) != w.id {
				continue
			}
			states, trans, err := readSegment(segPath(w.ckptDir, l, sh), w.exp)
			if err != nil {
				return err
			}
			slabs, n = append(slabs, states), n+len(states)/w.sw
			if l < cut {
				w.restored += int(trans)
			}
		}
		w.lanes.Absorb(slabs)
		w.levelFresh = append(w.levelFresh, n)
	}
	w.ckptLevel = cut
	w.level = cut
	return nil
}

// recoverTo executes the coordinator's takeover order: the uniform global
// rollback every survivor performs in lockstep — the same resetEra that
// starts a run — and the restore from the cut. The session survives it:
// wire history and the mesh links. Batches of the old era still queued are
// dropped by their tag when the next round drains them.
func (w *meshWorker) recoverTo(rec *Recover) {
	if rec.Era <= w.era {
		return
	}
	if err := checkOwners(rec.Owners, w.n); err != nil {
		w.err = err
		return
	}
	w.resetEra(rec.Era, rec.Owners, rec.Dead)
	if err := w.restore(rec.Cut); err != nil {
		w.err = fmt.Errorf("restoring checkpoint cut %d: %v", rec.Cut, err)
	}
}

// removeCkpt deletes the worker's per-session segment directory; called
// on a clean Finish (an evicted worker never Finishes — its segments are
// exactly what the survivors restore from, so only the coordinator or a
// clean end may remove them).
func (w *meshWorker) removeCkpt() {
	if w.ckptDir != "" {
		os.RemoveAll(w.ckptDir)
	}
}
