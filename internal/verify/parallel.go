package verify

import "sync"

// Tuning of the level round (DESIGN.md §1 has the numbers).
const (
	// serialLevelThreshold: levels with fewer frontier states than this run
	// both phases on the calling goroutine — waking lanes for tiny levels
	// (the first few samples, or single-app checks) costs more than it saves.
	serialLevelThreshold = 512
	// insertChunk is the piece size in which a lane inserts keys staged for
	// it: enough that their cache misses overlap, few enough to stay cached.
	insertChunk = 256
	// stageCap bounds the successors a lane generates in one round: staging
	// memory is lanes × stageCap keys however wide the level is, the keys
	// are still cached when they are inserted, and a mesh node gets back to
	// its poll between rounds.
	stageCap = 1 << 15
	// maxLanes caps the lane count of a node.
	maxLanes = 256
	// outPad is spare capacity, in slice headers, behind every lane's out.
	// The allocator puts the lanes' header arrays side by side and each lane
	// rewrites its own on every staged successor: 128 bytes keep them off one
	// another's cache line.
	outPad = 6
)

// NumShards is the number of hash shards, the unit of ownership between
// nodes: a state's shard is ShardOf its hash (Expander.HashWords), and an
// ownership table maps every shard to the node that stores and expands its
// states. A local search is one node owning all of them.
const NumShards = 64

// ShardOf is the hash shard of a state whose hash is h: its top six bits.
// Routing between nodes shards by it.
func ShardOf(h uint64) int { return int(h >> 58) }

// part cuts a node's share of the hash space into n partitions by the 32
// hash bits below the shard bits — a multiply-shift, even for any n, and
// disjoint from the low bits the tables index with, so partition and table
// slot never correlate. With P lanes, partition p = part(h, P) is lane p's.
func part(h uint64, n int) int { return int((h << 6 >> 32) * uint64(n) >> 32) }

// lane is one goroutine's share of a node: the states of its partition
// live in its private table and are expanded from its private frontier.
// Other lanes read only out, and only across a barrier.
type lane struct {
	table    keySet        // the lane's partition
	frontier level[uint64] // owned states of the level; [pos:] not yet expanded
	pos      int
	prev     int               // the size of the lane's previous level
	next     level[uint64]     // owned states first seen this level: the next frontier
	pool     blockPool[uint64] // the blocks of the lane's finished levels
	out      [][]uint64        // out[j]: successors staged for lane j in this round
	foreign  [][]uint64        // foreign[d]: successors owned by node d
	trans    int               // successors generated in this round
	fresh    int               // states first seen in this phase
	viol     uint64            // smallest violating state of the level known to the lane…
	violApp  int               // …and the application that misses its deadline there, or −1
	succ     []uint64          // one round piece's successors
	freshIdx []int32
	sc       expandScratch
	_        [128]byte // keeps the next lane's cursor off this scratch's cache line
}

// Lanes is the P lanes of one search node and the level round that drives
// them: the whole local parallel search, or one node of an external driver
// (the mesh worker of internal/dverify). Every state has one owner — the
// node its shard maps to, the lane its partition falls to — is inserted
// into that lane's table and expanded by that lane: no shared set, no CAS,
// no merge. States cross it as word slabs, one word per state. A level
// goes: Absorb the peers' states of it, then LevelRound until it reports
// the level expanded, then Advance. Not safe for concurrent use; the node
// runs its lanes itself.
type Lanes struct {
	v          *Verifier
	successors func(*Verifier, uint64, *expandScratch, []uint64, []uint32) ([]uint64, []uint32, int)
	hash       func(uint64) uint64 // routes states: shard and lane
	lanes      []lane

	owners [NumShards]uint8
	self   int

	// Written between phases only, by the caller; the lanes count their
	// fresh states apart and only read these, so nothing they write in a
	// phase shares a cache line with what the others read.
	states    int  // fresh states across all lanes
	tooLarge  bool // states exceeded maxStates
	maxStates int
	trans     int        // transitions of finished rounds
	minViol   uint64     // the level's smallest violating state so far…
	minApp    int        // …and its violator, or −1
	in        [][]uint64 // Absorb's slabs: fresh keys join the level, not the next
}

// newLanes builds a node of p lanes (clamped to 1..maxLanes) owning every
// shard, each lane with one table that grows by doubling alone.
func newLanes(v *Verifier, p int,
	successors func(*Verifier, uint64, *expandScratch, []uint64, []uint32) ([]uint64, []uint32, int),
	hash func(uint64) uint64) *Lanes {
	p = min(max(p, 1), maxLanes)
	e := &Lanes{v: v, successors: successors, hash: hash, lanes: make([]lane, p),
		maxStates: v.cfg.MaxStates, minApp: -1}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.table = *newKeySet(setCap / p)
		l.table.budget(v.cfg.MaxStates)
		l.table.doubling = true
		l.out = make([][]uint64, p, p+outPad)
		l.violApp = -1
	}
	return e
}

// runLanes is the parallel search: one node of n lanes, owning every shard,
// runs the level round until a level is empty. The levels are the
// sequential search's and each state is fresh once, so on schedulable sets
// States, Transitions and Depth equal the sequential counts for any lane
// count. On a violation the level is swept for its minimum violating
// packed state (the uint64 order), a property of the level alone; States
// is then the size of levels 0..Depth.
func runLanes(v *Verifier, n int, init uint64,
	successors func(*Verifier, uint64, *expandScratch, []uint64, []uint32) ([]uint64, []uint32, int),
	hash func(uint64) uint64) (Result, error) {
	e := newLanes(v, n, successors, hash)
	defer e.Release()
	e.Absorb([][]uint64{{init}})
	res := Result{Schedulable: true}
	for depth := 0; ; depth++ {
		if depth > 0 {
			e.Advance()
		}
		width := e.Stats().Level
		if width == 0 {
			return res, nil
		}
		res.Depth, res.States = depth, e.states
		obsLevels.Inc()
		levelTrans := e.trans
		for e.LevelRound(nil) {
		}
		res.Transitions = e.trans
		if e.tooLarge {
			res.States = e.states
			return res, ErrTooLarge
		}
		v.cfg.RunTrace.AddLevel(depth, width, e.trans-levelTrans)
		if e.minApp >= 0 {
			res.Schedulable, res.Violator = false, e.minApp
			return res, nil
		}
	}
}

// LaneStats is a node's search so far.
type LaneStats struct {
	States, Transitions int         // fresh states and transitions since Reset
	Level, Next         int         // states of the level and of the next found so far
	TooLarge            bool        // States exceeded the budget
	ViolApp             int         // the level's violator, or −1…
	Viol                PackedState // …and its minimum violating state
}

// NewLanes returns a node of p lanes over the expander's set, owning every
// shard until Reset says otherwise.
func (e *Expander) NewLanes(p int) *Lanes { return newLanes(e.v, p, successors, hashKey) }

// Reset empties the node for a new search in which it owns the shards
// owners maps to self, with a budget of maxStates fresh states.
func (e *Lanes) Reset(owners *[NumShards]uint8, self, maxStates int) {
	e.owners, e.self = *owners, self
	nodes := 0
	for _, o := range owners {
		nodes = max(nodes, int(o)+1)
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.table.reset()
		l.table.budget(maxStates)
		l.frontier.release(&l.pool)
		l.next.release(&l.pool)
		l.pos, l.prev, l.violApp = 0, 0, -1
		if len(l.foreign) < nodes {
			l.foreign = make([][]uint64, nodes, nodes+outPad) // padded like out
		}
	}
	e.states, e.tooLarge, e.maxStates, e.trans, e.minApp = 0, false, maxStates, 0, -1
}

// Absorb inserts slabs of this node's states; the fresh ones join the
// level being expanded.
func (e *Lanes) Absorb(slabs [][]uint64) {
	e.in = slabs
	n := 0
	for _, s := range slabs {
		n += len(s)
	}
	parallel := n >= serialLevelThreshold
	e.each(phaseAbsorb, parallel)
	e.each(phaseInsert, parallel)
	e.in = nil
}

// LevelRound runs one round of the level: every lane expands up to
// stageCap successors and stages them by owner, then inserts what was
// staged for it; the other nodes' go to ship — on the calling goroutine,
// which returns an empty buffer for the next round. It reports whether the
// level has states left; once a violation is known nothing more is routed
// and the rest of the level is swept for a smaller violator.
func (e *Lanes) LevelRound(ship func(node int, states []uint64) []uint64) bool {
	parallel := e.Stats().Level >= serialLevelThreshold
	e.each(phaseExpand, parallel)
	more := false
	for i := range e.lanes {
		l := &e.lanes[i]
		e.trans += l.trans
		l.trans = 0
		more = more || l.pos < l.frontier.len()
		if l.violApp >= 0 && (e.minApp < 0 || l.viol < e.minViol) {
			e.minViol, e.minApp = l.viol, l.violApp
		}
		for d, f := range l.foreign {
			if len(f) > 0 {
				l.foreign[d] = ship(d, f)
			}
		}
	}
	if e.minApp < 0 {
		e.each(phaseInsert, parallel)
	}
	return more && !e.tooLarge
}

// Advance makes the states found in the level's rounds the next level.
func (e *Lanes) Advance() {
	e.minApp = -1
	for i := range e.lanes {
		l := &e.lanes[i]
		l.prev = l.frontier.len()
		l.frontier.release(&l.pool)
		l.frontier, l.next, l.pos, l.violApp = l.next, l.frontier, 0, -1
	}
}

// Stats reports the search so far.
func (e *Lanes) Stats() LaneStats {
	s := LaneStats{States: e.states, Transitions: e.trans, TooLarge: e.tooLarge, ViolApp: e.minApp}
	for i := range e.lanes {
		s.Level += e.lanes[i].frontier.len()
		s.Next += e.lanes[i].next.len()
	}
	if e.minApp >= 0 {
		s.Viol = PackedState(e.minViol)
	}
	return s
}

// Release hands the node's visited tables mapped off the heap back to the
// kernel at once: its owner is done with it, and it must not be used
// after. A second Release does nothing.
func (e *Lanes) Release() {
	for i := range e.lanes {
		e.lanes[i].table.release()
	}
}

// each runs one phase on every lane and returns when all are done: every
// lane on a goroutine of its own (lane 0 too: all lanes then run at one
// stack depth, whoever calls) or, for a small level or one lane, all on the
// caller. Then it folds the lanes' fresh counts into the budget. (A phase
// is named, not passed as a method value: that would allocate per call.)
func (e *Lanes) each(phase int, parallel bool) {
	if !parallel || len(e.lanes) == 1 {
		for i := range e.lanes {
			e.run(phase, i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range e.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.run(phase, i)
			}()
		}
		wg.Wait()
	}
	for i := range e.lanes {
		e.states += e.lanes[i].fresh
		e.lanes[i].fresh = 0
	}
	e.tooLarge = e.states > e.maxStates
}

// The phases of a round, and run, which runs one on lane i.
const (
	phaseExpand = iota
	phaseAbsorb
	phaseInsert
)

func (e *Lanes) run(phase, i int) {
	switch phase {
	case phaseExpand:
		e.expand(i)
	case phaseAbsorb:
		e.absorb(i)
	default:
		e.insertStaged(i)
	}
}

// full reports whether lane l's inserts of the phase have taken the node
// past its budget.
func (e *Lanes) full(l *lane) bool { return e.states+l.fresh > e.maxStates }

// target is where lane l puts the phase's fresh keys.
func (e *Lanes) target(l *lane) *level[uint64] {
	if e.in != nil {
		return &l.frontier
	}
	return &l.next
}

// expand is lane i's part of a round: expand its frontier from the cursor,
// a chunk at a time, and route each chunk's successors, until it has
// generated stageCap of them or its frontier is done. Once a violation is
// known the level decides the verdict and nothing more is routed: the lane
// sweeps the rest for a smaller violator.
func (e *Lanes) expand(i int) {
	l := &e.lanes[i]
	if l.pos == 0 {
		l.table.reserve(LevelReserve(l.frontier.len(), l.prev))
	}
	for j := range l.out {
		l.out[j] = l.out[j][:0]
	}
	v, successors, succ, trans := e.v, e.successors, l.succ, 0
	viol, violApp := e.minViol, e.minApp
	for gen := 0; l.pos < l.frontier.len() && (gen < stageCap || violApp >= 0) && !e.full(l); {
		chunk := l.frontier.span(l.pos, seqChunk)
		l.pos += len(chunk)
		succ = succ[:0]
		for _, s := range chunk {
			if violApp >= 0 && viol < s {
				continue // cannot lower the minimum
			}
			n := len(succ)
			var app int
			succ, _, app = successors(v, s, &l.sc, succ, nil)
			if app >= 0 {
				viol, violApp = s, app
				continue
			}
			trans += len(succ) - n
			if violApp >= 0 {
				succ = succ[:n]
			}
		}
		gen += len(succ)
		e.route(l, succ)
	}
	l.succ, l.trans, l.viol, l.violApp = succ, trans, viol, violApp
}

// absorb is lane i's part of Absorb: it routes every P-th slab.
func (e *Lanes) absorb(i int) {
	l := &e.lanes[i]
	for j := range l.out {
		l.out[j] = l.out[j][:0]
	}
	for j := i; j < len(e.in); j += len(e.lanes) {
		for w := e.in[j]; len(w) > 0; w = w[min(insertChunk, len(w)):] {
			e.route(l, w[:min(insertChunk, len(w))])
		}
	}
}

// route sends keys to their owners: another node's to its foreign buffer,
// every other one to the staging buffer of its lane.
func (e *Lanes) route(l *lane, keys []uint64) {
	for _, k := range keys {
		h := e.hash(k)
		if d := int(e.owners[ShardOf(h)]); d != e.self {
			l.foreign[d] = append(l.foreign[d], k)
			continue
		}
		p := part(h, len(e.lanes))
		l.out[p] = append(l.out[p], k)
	}
}

// insertStaged is lane i's insert phase: the keys every lane, itself
// included, staged for it, in pieces of insertChunk.
func (e *Lanes) insertStaged(i int) {
	l := &e.lanes[i]
	for j := range e.lanes {
		keys := e.lanes[j].out[i]
		for lo := 0; lo < len(keys) && !e.full(l); lo += insertChunk {
			e.insert(l, keys[lo:min(lo+insertChunk, len(keys))], e.target(l))
		}
	}
}

// insert adds keys to lane l's table through the sets' probe-ahead addChunk
// and appends the fresh ones to the level to.
func (e *Lanes) insert(l *lane, keys []uint64, to *level[uint64]) {
	l.freshIdx = l.table.addChunk(keys, l.freshIdx[:0])
	to.gather(keys, l.freshIdx, &l.pool)
	l.fresh += len(l.freshIdx)
}
