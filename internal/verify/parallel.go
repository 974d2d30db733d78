package verify

import (
	"sync"
	"sync/atomic"
)

// Tuning of the owner-partitioned parallel BFS (DESIGN.md §1 has the numbers).
const (
	// serialLevelThreshold: levels with fewer frontier states than this run
	// both phases on the calling goroutine — waking lanes for tiny levels
	// (the first few samples, or single-app checks) costs more than it saves.
	serialLevelThreshold = 512
	// insertChunk is the piece size in which a lane feeds addChunk: enough
	// keys that their cache misses overlap, few enough to stay cached.
	insertChunk = 256
	// stageCap bounds the successors a lane stages before the level pauses
	// for an insert phase: staging memory is lanes × stageCap keys however
	// wide the level is, and the keys are still cached when they are inserted.
	stageCap = 1 << 15
	// minParts is the least number of partitions the hash space is cut into;
	// with fewer lanes every lane owns several, each in a set of its own, so
	// that one table growth moves 1/16 of the visited set and not half of it.
	minParts = 16
	// maxLanes caps the lane count: every lane stages into one buffer per
	// partition, and there are at least as many partitions as lanes.
	maxLanes = 256
	// outPad is spare capacity, in slice headers, behind every lane's out.
	// The allocator puts the lanes' header arrays side by side and each lane
	// rewrites its own on every staged successor: 128 bytes keep them off one
	// another's cache line.
	outPad = 6
)

// ownerOf maps a state's hash to the partition that owns the state, from the
// hash's top 32 bits: the visited sets index their tables with the low bits,
// so ownership and table slot never correlate, and the multiply-shift splits
// the hash space evenly for any partition count, not only powers of two.
func ownerOf(h uint64, partitions int) int { return int((h >> 32) * uint64(partitions) >> 32) }

// lane is one owner of the partitioned search: the states whose hash maps
// to one of its partitions live in its private sets and are expanded from its
// private frontier. Other lanes read only out, and only across a barrier.
type lane[K stateKey] struct {
	visited  []*keySet[K] // visited[j] holds partition i·parts+j, for lane i
	frontier []K          // owned states of this level; [pos:] not yet expanded
	pos      int          // expansion cursor into frontier
	next     []K          // owned states first seen this level: the next frontier
	out      [][]K        // out[p]: successors staged for partition p in this round
	trans    int          // successors generated in this round
	viol     K            // smallest violating state of the level known to the lane…
	violApp  int          // …and the application that misses its deadline there, or −1
	fresh    []int32
	succ     []K
	sc       expandScratch
	_        [128]byte // keeps the next lane's cursor off this scratch's cache line
}

// runLanes is the parallel search over either packed encoding: a
// level-synchronous BFS over n owner-partitioned lanes. Every state has one
// owner (ownerOf its hash), is inserted into exactly one private set and is
// expanded by exactly one lane — no shared set, no CAS, no merge. A level is
// a sequence of rounds of two phases, each ending in a barrier: in expand
// every lane expands its frontier from its cursor until it has staged
// stageCap successors, each in the buffer of its partition; in insert every
// lane drains the buffers of its partitions through addChunk (the sequential
// driver's probe-ahead insert), and the fresh keys are its next frontier.
//
// The levels are those of the sequential search and each state is fresh
// once, so on schedulable sets States, Transitions and Depth equal the
// sequential counts for any lane count. On a violation the level is swept
// far enough to find its minimum violating packed state (lessKey) — a property
// of the level alone, so Schedulable, Depth and Violator do not depend on the
// lane count either (Violator may differ from the sequential engine's
// first-in-expansion-order pick); States is then the size of levels 0..Depth.
func runLanes[K stateKey](v *Verifier, n int, init K,
	successors func(*Verifier, K, *expandScratch, []K, []uint32) ([]K, []uint32, int),
	hash func(K) uint64) (Result, error) {
	n = min(n, maxLanes)
	parts := max(1, minParts/n)
	np := n * parts
	res := Result{Schedulable: true, Bounded: v.cfg.MaxDisturbances > 0}
	lanes := make([]lane[K], n)
	for i := range lanes {
		for range parts {
			lanes[i].visited = append(lanes[i].visited, newKeySet[K](setCap[K]()/np))
		}
		lanes[i].out = make([][]K, np, np+outPad)
	}
	p := ownerOf(hash(init), np)
	lanes[p/parts].visited[p%parts].add(init)
	lanes[p/parts].next = []K{init}

	var (
		states   atomic.Int64 // fresh states across all lanes
		tooLarge atomic.Bool  // states exceeded the budget
		// Written between phases only, by the caller:
		reserve int  // room every set makes before the level's first insert
		minViol K    // the level's smallest violating state so far…
		minApp  = -1 // …and its violator, or −1
	)
	states.Store(1)
	maxStates := int64(v.cfg.MaxStates)

	expand := func(i int) {
		l := &lanes[i]
		for p := range l.out {
			l.out[p] = l.out[p][:0]
		}
		// Once a violation is known the level decides the verdict and nothing
		// more is inserted: sweep the rest for a smaller violator, unstaged.
		l.viol, l.violApp = minViol, minApp
		for staged := 0; l.pos < len(l.frontier) && (staged < stageCap || l.violApp >= 0); l.pos++ {
			s := l.frontier[l.pos]
			if l.violApp >= 0 && lessKey(l.viol, s) {
				continue // cannot lower the minimum
			}
			var app int
			l.succ, _, app = successors(v, s, &l.sc, l.succ[:0], nil)
			if app >= 0 {
				l.viol, l.violApp = s, app
				continue
			}
			l.trans += len(l.succ)
			if l.violApp >= 0 {
				continue
			}
			for _, ns := range l.succ {
				p := ownerOf(hash(ns), np)
				l.out[p] = append(l.out[p], ns)
			}
			staged += len(l.succ)
		}
	}
	insert := func(i int) {
		l := &lanes[i]
		for j, set := range l.visited {
			set.reserve(reserve)
			for src := range lanes {
				keys := lanes[src].out[i*parts+j]
				for lo := 0; lo < len(keys) && !tooLarge.Load(); lo += insertChunk {
					piece := keys[lo:min(lo+insertChunk, len(keys))]
					l.fresh = set.addChunk(piece, l.fresh[:0])
					for _, k := range l.fresh {
						l.next = append(l.next, piece[k])
					}
					if states.Add(int64(len(l.fresh))) > maxStates {
						tooLarge.Store(true)
					}
				}
			}
		}
	}

	// each runs one phase on every lane and returns when all are done: every
	// lane on a goroutine of its own (lane 0 too: all lanes then run at one
	// stack depth, whoever calls) or, for a small level, all on the caller.
	each := func(phase func(int), parallel bool) {
		var wg sync.WaitGroup
		for i := range lanes {
			if !parallel {
				phase(i)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				phase(i)
			}()
		}
		wg.Wait()
	}

	prevWidth := 1
	for depth := 0; ; depth++ {
		width := 0
		for i := range lanes {
			l := &lanes[i]
			l.frontier, l.next, l.pos = l.next, l.frontier[:0], 0
			width += len(l.frontier)
		}
		if width == 0 {
			return res, nil
		}
		res.Depth, res.States = depth, int(states.Load())
		obsLevels.Inc()
		levelTrans := res.Transitions
		reserve = LevelReserve(width, prevWidth) / np
		parallel := width >= serialLevelThreshold
		for more := true; more; {
			each(expand, parallel)
			more = false
			for i := range lanes {
				l := &lanes[i]
				res.Transitions += l.trans
				l.trans = 0
				more = more || l.pos < len(l.frontier)
				if l.violApp >= 0 && (minApp < 0 || lessKey(l.viol, minViol)) {
					minViol, minApp = l.viol, l.violApp
				}
			}
			if minApp >= 0 {
				continue
			}
			each(insert, parallel)
			reserve = 0
			if tooLarge.Load() {
				res.States = int(states.Load())
				return res, ErrTooLarge
			}
		}
		v.cfg.RunTrace.AddLevel(depth, width, res.Transitions-levelTrans)
		if minApp >= 0 {
			res.Schedulable, res.Violator = false, minApp
			return res, nil
		}
		prevWidth = width
	}
}
