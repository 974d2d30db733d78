// Package verify decides the paper's central question (Sec. 4): can a set
// of applications share one TT slot such that every application, under
// every admissible disturbance scenario, is granted the slot within its
// maximum wait T*w?
//
// The paper models applications, arbitration policy and scheduler as a
// network of timed automata (Figs. 5–7) and checks Error-state reachability
// with UPPAAL. Because the plant is sampled and the scheduler observes
// disturbances only at sample boundaries, integer-clock semantics at sample
// granularity is exact; this package therefore performs explicit-state
// breadth-first reachability over a bit-packed encoding of the composed
// discrete state. Disturbances are adversarial: at every sample, any subset
// of quiescent applications may have been disturbed during the preceding
// interval (subject to the per-application minimum inter-arrival time r).
//
// One packed encoding backs the semantics: a state is one uint64. Every
// application owns a lane of 2 phase bits and a clock fitted to the set's
// largest r (⌈log₂ r⌉ bits, see Verifier.valBits), and the lanes plus the
// 8-bit occupant/dwell header must fit the word — the paper's six
// applications at any r ≤ 127, eight at r ≤ 32, up to maxApps at r ≤ 4.
// New refuses a larger set with ErrEncoding.
// Sets of applications with identical profiles can additionally be checked
// under a sound symmetry quotient (Config.SymmetryReduction), collapsing
// the state space of homogeneous fleets by up to n! per class.
//
// Disturbance instances are unbounded: the search is full reachability.
// The paper's bounded-disturbance acceleration (Sec. 5) is not adopted: in
// this counter-free encoding it only adds a counter to every lane and never
// stored fewer states (DESIGN.md §4).
//
// The packed state is also the working form: kernel.go expands a state on
// its words, bit-parallel, and never decodes it.
//
// The same per-sample semantics are implemented by the runtime arbiter
// (internal/sched); cross-validation tests keep them in lock-step.
package verify

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"tightcps/internal/obs"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// Limits of the packed encoding. A set fits while n·appBits + 8 ≤ 64, where
// appBits = phaseBits + ⌈log₂ max r⌉ — e.g. 8 apps at r ≤ 32, 6 at r ≤ 127 —
// and n ≤ maxApps, which binds only at r ≤ 4.
const (
	maxApps   = 12  // application cap: occupant indices, the kernel's per-app tables
	maxClock  = 127 // r, T*w ≤ 127 samples
	maxTdw    = 15  // Tdw+ ≤ 15 samples
	phaseBits = 2
)

// Phases in the packed encoding: the two low bits of a lane. The occupant
// field names the one Granted application; its lane keeps the wait at grant.
const (
	pSteady uint8 = iota
	pWaiting
	pGranted
	pCooldown
)

// Config tunes a verification run.
type Config struct {
	// Policy selects the preemption policy to verify (default the paper's
	// eager policy).
	Policy sched.PreemptionPolicy
	// NondetTies explores all equally-urgent grant choices (sound for
	// verification). When false, ties break deterministically exactly like
	// the runtime arbiter (used for cross-validation).
	NondetTies bool
	// MaxStates aborts the search beyond this many visited states
	// (0 = 200 million).
	MaxStates int
	// Workers is the number of lanes of the search: 0 means GOMAXPROCS, 1
	// forces the sequential search. The parallel search partitions the
	// states among the lanes by hash and synchronises at level boundaries;
	// it visits exactly the sequential search's state space, so the verdict
	// — and, for schedulable sets, States/Transitions/Depth — is identical
	// for every lane count. On a violation it reports the application
	// missing its deadline in the minimum violating packed state of the
	// first violating level; the sequential search the first it meets. A
	// distributed run gives every node Workers lanes (1 included).
	Workers int
	// SymmetryReduction canonicalises every state by sorting the lanes of
	// applications with identical profiles (name excluded), exploring the
	// quotient under those lane permutations. Permuting identical
	// applications is an automorphism of the composed transition system,
	// so Error reachability — the verdict — is preserved, while the state
	// space of a fleet of k identical applications shrinks by up to k!.
	// Disturbance choices over interchangeable applications collapse from
	// subsets to counts, shrinking the branching factor the same way.
	// With the reduction on, Result.Violator and state counts refer to
	// the quotient (the violator index identifies the app's equivalence
	// class); Counterexample refuses it.
	SymmetryReduction bool
	// Distributed, when non-nil, hands the whole reachability run to an
	// external backend (internal/dverify.Runner): Run ships the profiles
	// and this Config — with Distributed cleared — to the hook instead of
	// searching in-process. In distributed runs MaxStates is a per-node
	// visited budget (it models per-node memory), so the aggregate capacity
	// grows with the cluster size. Counterexample rebuilds the schedule of
	// a distributed verdict locally.
	Distributed func(profiles []*switching.Profile, cfg Config) (Result, error)
	// RunID tags this run in logs, traces and distributed worker sessions.
	// Minted at the admission boundary (or by the CLI) via obs.NewRunID and
	// propagated through the Distributed hook onto every mesh worker; it
	// never affects the verdict or any cache key.
	RunID string
	// RunTrace, when non-nil, receives the run's telemetry: per-level spans
	// from the search drivers, per-node/per-link breakdowns from a
	// distributed backend, and the verdict totals on completion. Recording
	// is level-granular — the expansion hot path is untouched — so the
	// zero-allocation gates hold with a trace attached.
	RunTrace *obs.Trace
}

// Result reports a verification outcome.
type Result struct {
	Schedulable bool
	States      int // states visited
	Transitions int // transitions taken
	Depth       int // BFS depth reached (samples)
	// Violator is the application that missed its deadline (valid when
	// !Schedulable); Counterexample rebuilds a schedule leading to the miss.
	Violator int
	// Wire aggregates the frontier-exchange volume of a distributed run
	// (zero for local searches): the backend behind Config.Distributed
	// fills it in so CLIs can report what crossed the mesh links.
	Wire WireStats
}

// WireStats counts the states a distributed search moved between nodes.
// Every routed state crosses its link as one 8-byte word, so both byte
// counts are 8 × RoutedStates; Add is the one place that fills them in.
type WireStats struct {
	RoutedStates int // states shipped onto the mesh links
	// FilteredStates is always 0: no state is held back. It, RawBytes and
	// WireBytes stay because the benchmark harness's dverify rows read
	// them.
	FilteredStates int
	RawBytes       int
	WireBytes      int
	// Links breaks the total down per directed worker↔worker link,
	// ordered by (From, To).
	Links []LinkWire
}

// LinkWire is the frontier volume of one directed mesh link.
type LinkWire struct {
	From, To int // node IDs, From ≠ To
	States   int // states shipped over the link
}

// Add accumulates other into w, merging per-link counters by (From, To).
func (w *WireStats) Add(other WireStats) {
	w.RoutedStates += other.RoutedStates
	w.RawBytes = 8 * w.RoutedStates
	w.WireBytes = w.RawBytes
	for _, l := range other.Links {
		merged := false
		for i := range w.Links {
			if w.Links[i].From == l.From && w.Links[i].To == l.To {
				w.Links[i].States += l.States
				merged = true
				break
			}
		}
		if !merged {
			w.Links = append(w.Links, l)
		}
	}
	// slices.SortFunc, not sort.Slice: sort.Slice's reflection-based
	// swapper allocates on each call.
	slices.SortFunc(w.Links, func(a, b LinkWire) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
}

// Report formats the counters as the one-line summary every CLI prints —
// the distributed CI smoke greps this exact shape, so it lives here rather
// than being duplicated per command.
func (w WireStats) Report() string {
	return fmt.Sprintf("wire: routed=%d", w.RoutedStates)
}

// ErrTooLarge is returned when the state cap is exceeded.
var ErrTooLarge = errors.New("verify: state space exceeds configured limit")

// ErrEncoding is returned when the application set does not fit the packed
// state encoding: more than maxApps applications, lanes and header past the
// one 64-bit word, a clock past maxClock or a malformed dwell table.
var ErrEncoding = errors.New("verify: application set exceeds packed-encoding limits")

// Verifier checks slot-sharing feasibility for one application set.
type Verifier struct {
	profs []*switching.Profile
	cfg   Config
	n     int

	// valBits is the width of a lane's clock field: bits.Len(max r − 1) over
	// the set's profiles. It is enough because no stored lane holds a val
	// above r − 1: a Waiting clock reaching T*w is a miss and never stored, a
	// Granted lane keeps its wait at grant (≤ T*w), a Cooldown clock returns
	// to Steady (val 0) on reaching r, and New rejects r ≤ T*w.
	valBits  uint
	appBits  uint
	occShift uint
	ctShift  uint

	// Symmetry quotient (nil unless Config.SymmetryReduction found classes).
	symOf     []int   // app index → symmetry-group index, −1 when unique
	symGroups [][]int // groups of ≥ 2 interchangeable application indices

	kt kernel // what the expansion reads of the profiles and the layout
}

// New constructs a Verifier for the applications described by the profiles.
func New(profiles []*switching.Profile, cfg Config) (*Verifier, error) {
	n := len(profiles)
	if n == 0 || n > maxApps {
		return nil, fmt.Errorf("%w: %d applications (max %d)", ErrEncoding, n, maxApps)
	}
	maxR := 1
	for _, p := range profiles {
		maxR = max(maxR, p.R)
		if p.TwStar > maxClock {
			return nil, fmt.Errorf("%w: %s has T*w=%d samples, clocks hold at most %d", ErrEncoding, p.Name, p.TwStar, maxClock)
		}
		if p.R > maxClock {
			return nil, fmt.Errorf("%w: %s has r=%d samples, clocks hold at most %d", ErrEncoding, p.Name, p.R, maxClock)
		}
		if p.TwStar < 0 {
			return nil, fmt.Errorf("%w: %s has T*w=%d samples", ErrEncoding, p.Name, p.TwStar)
		}
		if p.R <= p.TwStar {
			return nil, fmt.Errorf("verify: %s has r=%d ≤ T*w=%d; the sporadic model requires r > T*w",
				p.Name, p.R, p.TwStar)
		}
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 200_000_000
	}
	v := &Verifier{profs: profiles, cfg: cfg, n: n, valBits: uint(bits.Len(uint(maxR - 1)))}
	v.appBits = phaseBits + v.valBits
	total := uint(n)*v.appBits + 4 /*occupant*/ + 4 /*cT*/
	v.occShift = uint(n) * v.appBits
	v.ctShift = v.occShift + 4
	if total > 64 {
		return nil, fmt.Errorf("%w: %d applications with largest r = %d need %d bits (%d-bit lanes and the 8-bit header), past the one-word limit of 64",
			ErrEncoding, n, maxR, total, v.appBits)
	}
	if cfg.SymmetryReduction {
		v.buildSymmetry()
	}
	if err := v.buildKernel(); err != nil {
		return nil, err
	}
	return v, nil
}

// buildSymmetry groups applications whose profiles are identical in every
// field the verifier consults (name excluded): such applications are
// interchangeable, and sorting their lanes yields a canonical quotient
// representative.
func (v *Verifier) buildSymmetry() {
	v.symOf = make([]int, v.n)
	for i := range v.symOf {
		v.symOf[i] = -1
	}
	for i := 0; i < v.n; i++ {
		if v.symOf[i] >= 0 {
			continue
		}
		group := []int{i}
		for j := i + 1; j < v.n; j++ {
			if v.symOf[j] < 0 && sameProfile(v.profs[i], v.profs[j]) {
				group = append(group, j)
			}
		}
		if len(group) < 2 {
			continue
		}
		id := len(v.symGroups)
		for _, a := range group {
			v.symOf[a] = id
		}
		v.symGroups = append(v.symGroups, group)
	}
	if len(v.symGroups) == 0 {
		v.symOf = nil
	}
}

// sameProfile reports whether two profiles are indistinguishable to the
// verifier: same timing parameters and dwell tables. Names are ignored —
// two fleet instances of one application design are interchangeable.
func sameProfile(a, b *switching.Profile) bool {
	if a.R != b.R || a.TwStar != b.TwStar || a.Granularity != b.Granularity ||
		len(a.TdwMinus) != len(b.TdwMinus) || len(a.TdwPlus) != len(b.TdwPlus) {
		return false
	}
	for i := range a.TdwMinus {
		if a.TdwMinus[i] != b.TdwMinus[i] {
			return false
		}
	}
	for i := range a.TdwPlus {
		if a.TdwPlus[i] != b.TdwPlus[i] {
			return false
		}
	}
	return true
}

// Run performs the BFS reachability analysis on Config.Workers
// owner-partitioned lanes (sequentially when Workers is 1). Every completed run —
// local or distributed — is folded into the engine metrics and, when
// Config.RunTrace is set, finalizes the run trace here.
func (v *Verifier) Run() (Result, error) {
	obsActive.Add(1)
	res, err := v.dispatch()
	obsActive.Add(-1)
	v.recordRun(res, err)
	return res, err
}

// dispatch routes the run to the distributed hook or a local driver.
func (v *Verifier) dispatch() (Result, error) {
	if v.cfg.Distributed != nil {
		cfg := v.cfg
		cfg.Distributed = nil
		return v.cfg.Distributed(v.profs, cfg)
	}
	workers := v.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return runSequential(v, initialState(v), successors)
	}
	return runLanes(v, workers, initialState(v), successors, hashKey)
}

// setCap is the initial capacity of a search's visited set, 512 KB; the
// parallel search splits it across its lanes.
const setCap = 1 << 16

// LevelReserve estimates how many fresh states the coming level will
// discover from the previous level's fanout — the previous level turned
// prevFrontier frontier states into frontier fresh ones, so the coming one
// is sized at the same ratio — letting a visited set grow to the level's
// size in one rehash instead of doubling mid-level. Every search driver
// sizes its sets with it, the distributed backend's workers included.
func LevelReserve(frontier, prevFrontier int) int {
	if prevFrontier <= 0 {
		return frontier
	}
	est := frontier * frontier / prevFrontier
	if max := 8 * frontier; est > max {
		est = max // cap runaway extrapolation on early ragged levels
	}
	return est
}

// seqChunk is how many frontier states the sequential driver expands before
// it inserts their successors: enough that one chunk's visited-set misses
// overlap (see keySet.addChunk), few enough that the successor buffer and
// the slots it touched are still in cache when they are resolved.
const seqChunk = 128

// runSequential is the single-goroutine BFS:
// frontier states are expanded in insertion order and the search stops at
// the first violation encountered. Each level is processed in chunks of
// seqChunk frontier states — expand the chunk into one successor buffer,
// then insert the buffer with addChunk — which visits, counts and orders
// states exactly like expanding and inserting one state at a time: addChunk
// reports the same fresh successors in the same order, and a violation (or
// the state budget) found mid-chunk takes effect only after the successors
// of the states before it have been committed. The two levels live in one
// level store: each block of the frontier, once expanded, serves the next
// level, so no level grows by doubling and the two together hold little
// more than the larger of them. The chunk buffers and the expansion scratch
// are recycled, so the steady-state loop allocates only when the visited
// set or the store's block count grows.
func runSequential(v *Verifier, init uint64,
	successors func(*Verifier, uint64, *expandScratch, []uint64, []uint32) ([]uint64, []uint32, int)) (Result, error) {
	res := Result{Schedulable: true}
	visited := newKeySet(setCap)
	defer visited.release()
	visited.budget(v.cfg.MaxStates)
	visited.add(init)
	var pool blockPool[uint64]
	var frontier, next level[uint64]
	frontier.push(init, &pool)
	res.States = 1

	var sc expandScratch
	var succ []uint64      // the chunk's successors, in expansion order
	var fresh []int32      // indices into succ of the first-seen ones
	var ends [seqChunk]int // ends[i] = len(succ) once chunk[i] is expanded
	prevFrontier := 1
	for depth := 0; frontier.len() > 0; depth++ {
		res.Depth = depth
		obsLevels.Inc()
		levelTrans, width := res.Transitions, frontier.len()
		visited.reserve(LevelReserve(width, prevFrontier))
		for lo := 0; lo < width; lo += seqChunk {
			if lo%levelBlock == 0 && lo > 0 {
				frontier.drop(lo/levelBlock-1, &pool) // expanded: next may refill it
			}
			chunk := frontier.span(lo, seqChunk)
			succ = succ[:0]
			viol := -1
			for i, s := range chunk {
				succ, _, viol = successors(v, s, &sc, succ, nil)
				if viol >= 0 {
					break // the violator's successors are not inserted
				}
				ends[i] = len(succ)
			}
			fresh = visited.addChunk(succ, fresh[:0])
			if over := res.States + len(fresh) - v.cfg.MaxStates; over > 0 {
				// The budget trips on the fresh key that makes States
				// MaxStates + 1: count the transitions up to and including
				// the expansion that produced it.
				i := int(fresh[len(fresh)-over])
				p := 0 // chunk index of the state that produced succ[i]
				for ends[p] <= i {
					p++
				}
				res.States = v.cfg.MaxStates + 1
				res.Transitions += ends[p]
				return res, ErrTooLarge
			}
			res.States += len(fresh)
			next.gather(succ, fresh, &pool)
			res.Transitions += len(succ)
			if viol >= 0 {
				res.Schedulable = false
				res.Violator = viol
				v.cfg.RunTrace.AddLevel(depth, width, res.Transitions-levelTrans)
				return res, nil
			}
		}
		v.cfg.RunTrace.AddLevel(depth, width, res.Transitions-levelTrans)
		prevFrontier = width
		frontier.release(&pool)
		frontier, next = next, frontier
	}
	return res, nil
}

// Counterexample rebuilds the disturbance schedule behind res, a violation
// Slot(profiles, cfg) reported on any engine: step k lists the applications
// disturbed at sample k, and the next expansion misses res.Violator's
// deadline. A local BFS down to res.Depth, the level every engine stops at,
// ends at the first state there, in the sequential search's order, that
// misses that deadline: for a Workers: 1 result the one the search stopped
// at. It honours cfg.MaxStates and ignores Workers and Distributed.
func Counterexample(profiles []*switching.Profile, cfg Config, res Result) ([][]int, error) {
	if res.Schedulable || res.Violator < 0 || res.Violator >= len(profiles) {
		return nil, errors.New("verify: the result names no violator to explain")
	}
	if cfg.SymmetryReduction {
		return nil, errors.New("verify: SymmetryReduction is incompatible with Counterexample (lane identities are quotiented away)")
	}
	v, err := New(profiles, cfg)
	if err != nil {
		return nil, err
	}
	return rebuildPath(v, res)
}

// visit is a state of rebuildPath's search, the index in the level above of
// the state it was first reached from, and the disturbance mask of that edge.
type visit struct {
	s      uint64
	parent int32
	mask   uint32
}

// rebuildPath is Counterexample's search. It expands and
// inserts one state at a time, which orders states like runSequential's
// chunks, and keeps every level, in the level store, for the walk back from
// the miss. It inserts levels 0..res.Depth at most, which res.States counts
// on every engine, so its set is sized once, before the search, and never
// rehashes.
func rebuildPath(v *Verifier, res Result) ([][]int, error) {
	init := initialState(v)
	visited := newKeySet(tableFor(min(res.States, v.cfg.MaxStates+1)))
	defer visited.release()
	visited.budget(v.cfg.MaxStates)
	visited.add(init)
	var pool blockPool[visit]
	levels := make([]level[visit], 1, 64)
	levels[0].push(visit{s: init, parent: -1}, &pool)
	states := 1
	var sc expandScratch
	var succ []uint64
	masks := []uint32{} // non-nil: the kernel records a mask per successor
	for depth := 0; depth <= res.Depth; depth++ {
		levels = append(levels, level[visit]{})
		for p := 0; p < levels[depth].len(); p++ {
			st := levels[depth].at(p)
			var viol int
			succ, masks, viol = successors(v, st.s, &sc, succ[:0], masks[:0])
			if viol == res.Violator && depth == res.Depth {
				out := make([][]int, depth)
				for k := depth; k > 0; k-- {
					st = levels[k].at(p)
					for a := 0; a < v.n; a++ {
						if st.mask&(1<<a) != 0 {
							out[k-1] = append(out[k-1], a)
						}
					}
					p = int(st.parent)
				}
				return out, nil
			}
			if viol >= 0 || depth == res.Depth {
				continue
			}
			for i, s := range succ {
				if visited.add(s) {
					if states++; states > v.cfg.MaxStates {
						return nil, ErrTooLarge
					}
					levels[depth+1].push(visit{s: s, parent: int32(p), mask: masks[i]}, &pool)
				}
			}
		}
	}
	return nil, fmt.Errorf("verify: no state at depth %d misses %s's deadline", res.Depth, v.profs[res.Violator].Name)
}

// Slot verifies whether the applications described by the given profiles
// can share one TT slot (convenience wrapper).
func Slot(profiles []*switching.Profile, cfg Config) (Result, error) {
	v, err := New(profiles, cfg)
	if err != nil {
		return Result{}, err
	}
	return v.Run()
}
