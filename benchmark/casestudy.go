package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tightcps/internal/control"
	"tightcps/internal/core"
	"tightcps/internal/mapping"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// caseWant is the pinned answer of the case-study dimensioning.
type caseWant struct {
	slots         [][]string
	verifications int
	twStar        map[string]int
}

var paperTwStar = map[string]int{"C1": 11, "C2": 13, "C3": 15, "C4": 12, "C5": 12, "C6": 12}

func (w caseWant) check(slots [][]string, verifications int, profiles []*switching.Profile, err error) error {
	switch {
	case err != nil:
		return err
	case !reflect.DeepEqual(slots, w.slots):
		return fmt.Errorf("slots %v, want %v", slots, w.slots)
	case verifications != w.verifications:
		return fmt.Errorf("%d verifications, want %d", verifications, w.verifications)
	}
	for _, p := range profiles {
		if p.TwStar != w.twStar[p.Name] {
			return fmt.Errorf("%s: T*w = %d, want %d", p.Name, p.TwStar, w.twStar[p.Name])
		}
	}
	return nil
}

// caseInputs returns the applications and their pinned allocation: the
// paper's six, or at smoke scale the two that share slot S2.
func caseInputs(smoke bool) ([]core.App, caseWant) {
	apps := core.CaseStudyApps()
	want := caseWant{slots: [][]string{{"C1", "C5", "C4", "C3"}, {"C6", "C2"}}, verifications: 6, twStar: paperTwStar}
	if smoke {
		var two []core.App
		for _, a := range apps {
			if a.Name == "C2" || a.Name == "C6" {
				two = append(two, a)
			}
		}
		apps, want.slots, want.verifications = two, [][]string{{"C6", "C2"}}, 1
	}
	return apps, want
}

// runCaseStudy alternates Dimension() with Workers: 1 and Workers: 0, each
// on a fresh admission cache. The traced op is the staged composition of
// the same public calls, which must produce the identical allocation.
func runCaseStudy(e *env) error {
	apps, want := caseInputs(e.smoke)
	dimension := func(workers int) float64 {
		d := core.Dimensioner{Apps: apps, Opts: core.Options{CheckSwitchingStability: true, Workers: workers}}
		t := time.Now()
		alloc, err := d.Dimension()
		dt := time.Since(t).Seconds()
		if err != nil {
			alloc = &core.Allocation{}
		}
		e.check(fmt.Sprintf("Dimension(Workers: %d)", workers),
			want.check(alloc.SlotNames(), alloc.Verifications, alloc.Profiles, err))
		return dt
	}
	staged := func(workers int, sp *spanRec) *stagedOp {
		op := stagedDimension(apps, workers, sp, e.newOp())
		var slots [][]string
		verifications := 0
		if op.err == nil {
			slots, verifications = op.res.SlotNames(op.profiles), op.res.Verifications
		}
		e.check(fmt.Sprintf("staged Dimension(Workers: %d)", workers),
			want.check(slots, verifications, op.profiles, op.err))
		return op
	}

	dimension(0) // warm-up: first-run page faults and heap growth are set-up
	e.beginWindow()

	var stageSums []float64
	e.rounds(func(sp *spanRec) {
		if sp == nil {
			d1 := dimension(1)
			e.rec.add("op.dimension_s", d1)
			e.rec.add("cold_ms", 1000*d1)
			e.rec.add("op.dimension_par_s", dimension(0))
			return
		}
		op := staged(1, sp)
		staged(0, sp)
		if op.err != nil {
			return
		}
		cqlf, _, _ := sp.sumChildren(op.root, "control.cqlf")
		compute, slowest, _ := sp.sumChildren(op.root, "switching.compute")
		slot, _, calls := sp.sumChildren(op.firstfit, "verify.slot")
		points := 0
		for _, p := range op.profiles {
			points += p.TwStar + 1
		}
		e.rec.add("control.cqlf_s", cqlf)
		e.rec.add("switching.compute_s", compute)
		e.rec.add("switching.compute_max_app_s", slowest)
		e.rec.add("switching.tw_points", float64(points))
		e.rec.add("switching.ms_per_tw_point", 1000*compute/float64(points))
		e.rec.add("verify.slot_s", slot)
		e.rec.add("verify.calls", float64(calls))
		e.rec.add("verify.states", float64(op.states))
		e.rec.add("mapping.firstfit_self_s", sp.self(op.firstfit))
		e.rec.add("mapping.checks", float64(op.res.Verifications))
		e.rec.add("mapping.cache_hits", float64(op.res.CacheHits))
		e.rec.add("mapping.cache_misses", float64(op.res.CacheMisses))
		e.rec.add("mapping.slots", float64(len(op.res.Slots)))
		e.rec.add("bench.attributed_pct", 100*sp.covered(op.root)/sp.get(op.root).dur())
		stageSums = append(stageSums, cqlf+compute+sp.get(op.firstfit).dur())
	})
	if e.traced {
		e.rec.add("core.stage_gap_s", e.rec.median("op.dimension_s")-median(stageSums))
	}
	return nil
}

// stagedOp is one traced dimensioning: its spans and what it produced.
type stagedOp struct {
	root, firstfit int
	profiles       []*switching.Profile
	res            *mapping.Result
	states         int
	err            error
}

// stagedDimension is what core.Dimensioner.Dimension does, written out so a
// span can sit at every layer boundary: CQLF certification and profile
// computation fanned out per application under the same worker-budget
// split, then first-fit mapping over verify.Slot on a fresh cache.
func stagedDimension(apps []core.App, workers int, sp *spanRec, opID int) *stagedOp {
	op := &stagedOp{root: sp.begin("op.dimension", -1, opID)}
	defer sp.end(op.root)
	budget := workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer := min(budget, len(apps))
	scfg := switching.Config{Workers: max(1, budget/outer)}

	op.profiles = make([]*switching.Profile, len(apps))
	errs := make([]error, len(apps))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(apps) {
					return
				}
				a := apps[i]
				id := sp.begin("control.cqlf", op.root, opID)
				res, err := control.SwitchingStable(a.Plant, a.KT, a.KE)
				sp.end(id)
				if err != nil || !res.Found {
					errs[i] = fmt.Errorf("%s: %w", a.Name, core.ErrNotSwitchingStable)
					return
				}
				id = sp.begin("switching.compute", op.root, opID)
				op.profiles[i], errs[i] = core.Profile(a, scfg)
				sp.end(id)
				if errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			op.err = err
			return op
		}
	}

	op.firstfit = sp.begin("mapping.firstfit", op.root, opID)
	vcfg := verify.Config{NondetTies: true, Workers: workers}
	op.res, op.err = mapping.FirstFitCached(op.profiles, func(ps []*switching.Profile) (bool, error) {
		id := sp.begin("verify.slot", op.firstfit, opID)
		res, err := verify.Slot(ps, vcfg)
		sp.end(id)
		op.states += res.States
		return res.Schedulable, err
	}, mapping.NewCache())
	sp.end(op.firstfit)
	return op
}
