package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// The timed fleet is always generator seed 1: across generator seeds the
// cold sweep costs between 1.0 s and 3.6 s on one host (the slack
// archetypes decide how many admission checks run into the state budget),
// which would drown any regression bound. -seed instead generates a second
// fleet that is swept once, untimed, and held to the seed-independent
// invariants.
const (
	timedFleetSeed = 1
	sweepBudget    = 1_000_000 // per-admission MaxStates; a bust rejects conservatively
	warmReps       = 1000      // warm first-fit + DP repetitions timed as one span
)

// sweepConfig is how the sweep verifies one candidate slot: the symmetry
// quotient on one core under the state budget.
var sweepConfig = verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 1, MaxStates: sweepBudget}

// newSweepCache salts the admission cache with the verdict-relevant part of
// sweepConfig: the budget makes verdicts configuration-dependent.
func newSweepCache() *mapping.Cache {
	return mapping.NewCacheFor(mapping.VerifyConfigKey(sweepConfig))
}

// sweepStats counts what the sweep's admission function did.
type sweepStats struct {
	calls, states          int // verify.Slot calls and the states they visited
	refuted, busts, wasted int // prefilter rejects, budget rejects and their states
}

// sweep is one run of the cmd/experiments -synthetic pipeline, rebuilt from
// public calls: generate, profile one archetype each, clone across the
// fleet, first-fit with the budgeted symmetric admission function, then
// first-fit + DP on the sample of the two tightest archetypes.
type sweep struct {
	profiles []*switching.Profile // kept instances
	sample   []*switching.Profile
	cache    *mapping.Cache
	admit    mapping.VerifyFunc
	stats    sweepStats

	ff, ffSample, dp *mapping.Result

	// root is the cold op's span; ffSpans (fleet, then sample) and dpSpan
	// are the mapping calls under it, parents of the admission spans.
	root, dpSpan int
	ffSpans      []int
}

// admission is the sweep's admission function: counterexample-replay
// prefilter, then the exact checker on the symmetry quotient under the
// state budget. parent is read at call time, so the spans hang under
// whichever mapping call is running.
func (s *sweep) admission(sp *spanRec, op int, parent *int) mapping.VerifyFunc {
	return func(set []*switching.Profile) (bool, error) {
		id := sp.begin("verify.refute", *parent, op)
		refuted := verify.Refute(set, sched.PreemptEager)
		sp.end(id)
		if refuted {
			s.stats.refuted++
			return false, nil
		}
		id = sp.begin("verify.slot", *parent, op)
		res, err := verify.Slot(set, sweepConfig)
		sp.end(id)
		s.stats.calls++
		s.stats.states += res.States
		switch {
		case errors.Is(err, verify.ErrTooLarge):
			s.stats.busts++
			s.stats.wasted += res.States
			return false, nil
		case errors.Is(err, verify.ErrEncoding):
			return false, nil // over the packed encoding's cap: reject conservatively
		case err != nil:
			return false, err
		}
		return res.Schedulable, nil
	}
}

func runSweep(n int, genSeed int64, sp *spanRec, op int) (*sweep, error) {
	s := &sweep{root: sp.begin("op.sweep_cold", -1, op), dpSpan: -1}
	defer sp.end(s.root)

	id := sp.begin("plants.synthetic", s.root, op)
	w := plants.Synthetic(plants.SyntheticOptions{N: n, Seed: genSeed})
	sp.end(id)

	// One profile per archetype; archetypes whose requirement is infeasible
	// or trivial are dropped with their instances.
	arch := make([]*switching.Profile, len(w.Designs))
	done := make([]bool, len(w.Designs))
	for i, d := range w.ArchetypeOf {
		if done[d] {
			continue
		}
		done[d] = true
		id := sp.begin("switching.compute", s.root, op)
		p, err := switching.Compute(plants.SwitchingPlant(w.Apps[i]), switching.Config{Horizon: 800, Workers: 1})
		sp.end(id)
		if err != nil {
			continue
		}
		if p.R <= p.TwStar {
			p.ClampTwStar(p.R - 1)
		}
		arch[d] = p
	}
	var archOf []int
	for i, a := range w.Apps {
		if ap := arch[w.ArchetypeOf[i]]; ap != nil {
			s.profiles = append(s.profiles, ap.Clone(a.Name))
			archOf = append(archOf, w.ArchetypeOf[i])
		}
	}
	s.sample = dpSample(s.profiles, archOf, arch)

	s.cache = newSweepCache()
	parent := -1
	s.admit = s.admission(sp, op, &parent)

	var err error
	parent = sp.begin("mapping.firstfit", s.root, op)
	s.ffSpans = append(s.ffSpans, parent)
	s.ff, err = mapping.FirstFitCached(s.profiles, s.admit, s.cache)
	sp.end(parent)
	if err != nil {
		return s, err
	}
	// 2^n subset checks stay cheap on the sample, and the shared cache
	// reuses every verdict first-fit already settled.
	if len(s.sample) >= 4 {
		parent = sp.begin("mapping.firstfit", s.root, op)
		s.ffSpans = append(s.ffSpans, parent)
		s.ffSample, err = mapping.FirstFitCached(s.sample, s.admit, s.cache)
		sp.end(parent)
		if err != nil {
			return s, err
		}
		s.dpSpan = sp.begin("mapping.optimal", s.root, op)
		parent = s.dpSpan
		s.dp, err = mapping.OptimalCached(s.sample, s.admit, s.cache)
		sp.end(s.dpSpan)
	}
	return s, err
}

// warm repeats the sweep's mapping calls on its now-warm cache and returns
// the slots of the last first-fit and the checks one repetition performs.
func (s *sweep) warm(reps int) (slots [][]int, checksPerRep int, err error) {
	for i := 0; i < reps; i++ {
		ff, err := mapping.FirstFitCached(s.profiles, s.admit, s.cache)
		if err != nil {
			return nil, 0, err
		}
		slots, checksPerRep = ff.Slots, ff.Verifications
		if s.dp != nil {
			ffS, err1 := mapping.FirstFitCached(s.sample, s.admit, s.cache)
			dp, err2 := mapping.OptimalCached(s.sample, s.admit, s.cache)
			if err := errors.Join(err1, err2); err != nil {
				return nil, 0, err
			}
			checksPerRep += ffS.Verifications + dp.Verifications
		}
	}
	return slots, checksPerRep, nil
}

// dpSample picks up to five instances of each of the two lowest-T*w
// archetypes — the DP partitioner's tractable comparison set.
func dpSample(ps []*switching.Profile, archOf []int, arch []*switching.Profile) []*switching.Profile {
	var live []int
	for d, p := range arch {
		if p != nil {
			live = append(live, d)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return arch[live[i]].TwStar < arch[live[j]].TwStar })
	if len(live) > 2 {
		live = live[:2]
	}
	var out []*switching.Profile
	for _, d := range live {
		picked := 0
		for i, inst := range ps {
			if picked < 5 && archOf[i] == d {
				out = append(out, inst)
				picked++
			}
		}
	}
	return out
}

// sweepWant pins the counts of the timed fleet.
type sweepWant struct{ kept, slots, checks, hits, refuted, busts int }

var (
	sweepWantFull  = sweepWant{kept: 84, slots: 19, checks: 897, hits: 845, refuted: 26, busts: 3}
	sweepWantSmoke = sweepWant{kept: 32, slots: 8, checks: 140, hits: 108, refuted: 26, busts: 1}
)

func (w sweepWant) check(s *sweep, err error) error {
	if err != nil {
		return err
	}
	got := sweepWant{len(s.profiles), len(s.ff.Slots), s.ff.Verifications, s.ff.CacheHits, s.stats.refuted, s.stats.busts}
	if got != w {
		return fmt.Errorf("sweep counts %+v, want %+v", got, w)
	}
	return nil
}

// invariants hold for a fleet of any seed: the warm allocation equals the
// cold one, the DP never needs more slots than first-fit on the sample, and
// every multi-app slot of the allocation re-verifies under the same budget.
func (s *sweep) invariants() error {
	warm, _, err := s.warm(1)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(warm, s.ff.Slots) {
		return errors.New("warm-cache allocation differs from the cold one")
	}
	if s.dp != nil && len(s.dp.Slots) > len(s.ffSample.Slots) {
		return fmt.Errorf("DP found %d slots, first-fit %d on the same sample", len(s.dp.Slots), len(s.ffSample.Slots))
	}
	for si, slot := range s.ff.Slots {
		if len(slot) < 2 {
			continue
		}
		var set []*switching.Profile
		for _, i := range slot {
			set = append(set, s.profiles[i])
		}
		res, err := verify.Slot(set, sweepConfig)
		if err != nil || !res.Schedulable {
			return fmt.Errorf("slot %d of the allocation does not re-verify: schedulable=%v err=%v", si, res.Schedulable, err)
		}
	}
	return nil
}

// runFleetSweep times the cold sweep and the warm repetitions of the fixed
// fleet, then sweeps the -seed fleet once for the invariants.
func runFleetSweep(e *env) error {
	n, reps, want := 100, warmReps, sweepWantFull
	if e.smoke {
		n, reps, want = 32, 10, sweepWantSmoke
	}

	var first [][]int
	cold := func(sp *spanRec, record bool) *sweep {
		op := e.newOp()
		t := time.Now()
		s, err := runSweep(n, timedFleetSeed, sp, op)
		d := time.Since(t).Seconds()
		e.check("cold sweep", want.check(s, err))
		if err != nil {
			return nil
		}
		// Identical inputs: the first sweep is held to the invariants, the
		// rest to the first.
		if first == nil {
			first = s.ff.Slots
			err = s.invariants()
		} else if !reflect.DeepEqual(s.ff.Slots, first) {
			err = errors.New("allocation differs from the run's first sweep")
		}
		e.check("cold sweep allocation", err)
		if record {
			e.rec.add("op.sweep_cold_s", d)
			e.rec.add("cold_ms", 1000*d)
		}
		return s
	}
	round := func(sp *spanRec, record bool) {
		s := cold(sp, record)
		if s == nil {
			return
		}
		// The warm half keeps the cold half's admission function, whose
		// spans would dominate a 1 ms repetition; a warm cache never calls
		// it, so the traced and the untraced warm half are the same code.
		calls := s.stats.calls + s.stats.refuted
		t := time.Now()
		slots, checks, err := s.warm(reps)
		d := time.Since(t).Seconds()
		if err == nil && !reflect.DeepEqual(slots, s.ff.Slots) {
			err = errors.New("warm-cache allocation differs from the cold one")
		}
		if err == nil && s.stats.calls+s.stats.refuted != calls {
			err = errors.New("the warm cache let a check through to the admission function")
		}
		e.check("warm sweep", err)
		if record {
			e.rec.add("op.sweep_warm_ms", 1000*d/float64(reps))
		}
		if sp == nil || err != nil {
			return
		}
		compute, _, _ := sp.sumChildren(s.root, "switching.compute")
		synth, _, _ := sp.sumChildren(s.root, "plants.synthetic")
		var slotS, refuteS, ffSelf, dpSelf float64
		admissions := func(mappingSpan int) {
			t, _, _ := sp.sumChildren(mappingSpan, "verify.slot")
			slotS += t
			t, _, _ = sp.sumChildren(mappingSpan, "verify.refute")
			refuteS += t
		}
		for _, id := range s.ffSpans {
			admissions(id)
			ffSelf += sp.self(id)
		}
		e.rec.add("plants.synthetic_ms", 1000*synth)
		e.rec.add("switching.archetype_compute_s", compute)
		e.rec.add("verify.calls", float64(s.stats.calls))
		e.rec.add("verify.states", float64(s.stats.states))
		e.rec.add("verify.refute_rejects", float64(s.stats.refuted))
		e.rec.add("verify.budget_rejects", float64(s.stats.busts))
		e.rec.add("verify.budget_wasted_states", float64(s.stats.wasted))
		e.rec.add("mapping.firstfit_self_s", ffSelf)
		checksCold, hits, misses := s.ff.Verifications, s.ff.CacheHits, s.ff.CacheMisses
		if s.dp != nil {
			admissions(s.dpSpan)
			dpSelf = sp.self(s.dpSpan)
			checksCold += s.ffSample.Verifications + s.dp.Verifications
			hits += s.ffSample.CacheHits + s.dp.CacheHits
			misses += s.ffSample.CacheMisses + s.dp.CacheMisses
		}
		e.rec.add("verify.slot_s", slotS)
		e.rec.add("verify.refute_s", refuteS)
		e.rec.add("mapping.optimal_self_s", dpSelf)
		e.rec.add("mapping.checks", float64(checksCold))
		e.rec.add("mapping.cache_hits", float64(hits))
		e.rec.add("mapping.cache_misses", float64(misses))
		e.rec.add("mapping.slots", float64(len(s.ff.Slots)))
		e.rec.add("mapping.warm_ns_per_check", 1e9*d/float64(reps)/float64(checks))
		e.rec.add("mapping.cache_entries", float64(s.cache.Len()))
		e.rec.add("bench.attributed_pct", 100*sp.covered(s.root)/sp.get(s.root).dur())
		e.check("cache save/load", cacheRoundTrip(e, s.cache))
	}

	round(nil, false) // warm-up
	e.beginWindow()
	e.rounds(func(sp *spanRec) { round(sp, sp == nil) })

	// The generated fleet of this run's seed: swept once, never timed.
	s, err := runSweep(n, e.seed, nil, 0)
	if err == nil {
		err = s.invariants()
	}
	e.check(fmt.Sprintf("sweep invariants (fleet of seed %d)", e.seed), err)
	return nil
}

// cacheRoundTrip times Cache.Save and Cache.Load through a bytes.Buffer.
func cacheRoundTrip(e *env, c *mapping.Cache) error {
	var buf bytes.Buffer
	t := time.Now()
	if err := c.Save(&buf); err != nil {
		return err
	}
	e.rec.add("mapping.cache_save_ms", 1000*time.Since(t).Seconds())
	loaded := newSweepCache()
	t = time.Now()
	if err := loaded.Load(&buf); err != nil {
		return err
	}
	e.rec.add("mapping.cache_load_ms", 1000*time.Since(t).Seconds())
	if loaded.Len() != c.Len() {
		return fmt.Errorf("loaded %d verdicts, saved %d", loaded.Len(), c.Len())
	}
	return nil
}
