// Benchmarks regenerating every artefact of the paper's evaluation — one
// benchmark per artefact (Table 1, Figs. 2–4 and 8–9, the Sec. 5
// dimensioning and verification-time studies) plus ablations (preemption
// policy, Tw granularity, the symmetry quotient against the concrete
// space). Engine throughput, scaling and cache rows live in benchmark/
// (see its README). Run:
//
//	go test -bench=. -benchmem
package tightcps_test

import (
	"fmt"
	"testing"

	"tightcps/internal/baseline"
	"tightcps/internal/control"
	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
	"tightcps/internal/ta"
	"tightcps/internal/verify"
)

func motivationalPlant(stable bool) switching.Plant {
	kE := plants.MotivationalKEStable
	if !stable {
		kE = plants.MotivationalKEUnstable
	}
	return switching.Plant{Name: "fig", Sys: plants.Motivational(), KT: plants.MotivationalKT,
		KE: kE, X0: plants.MotivationalX0, JStar: 18, R: 25}
}

func caseProfiles(b *testing.B, names ...string) []*switching.Profile {
	b.Helper()
	ps, err := plants.ProfileList(names...)
	if err != nil {
		b.Fatal(err)
	}
	return ps
}

// BenchmarkFig2Responses regenerates the five Fig. 2 response curves.
func BenchmarkFig2Responses(b *testing.B) {
	stable, unstable := motivationalPlant(true), motivationalPlant(false)
	seq := make([]switching.Mode, 8)
	for i := 4; i < 8; i++ {
		seq[i] = switching.MT
	}
	for i := 0; i < b.N; i++ {
		_ = switching.SimulateSequence(stable, nil, 50)
		_ = switching.SimulateSequence(unstable, nil, 50)
		_ = switching.SimulateSequence(stable, seq, 50)
		_ = switching.SimulateSequence(unstable, seq, 50)
		if _, ok := switching.SettleAfterSwitch(stable, 0, 4000, switching.Config{}); !ok {
			b.Fatal("KT trajectory did not settle")
		}
	}
}

// BenchmarkFig3Surface regenerates the settling-time surface for both
// controller pairs (Fig. 3).
func BenchmarkFig3Surface(b *testing.B) {
	stable, unstable := motivationalPlant(true), motivationalPlant(false)
	for i := 0; i < b.N; i++ {
		_ = switching.Surface(stable, 10, 8, switching.Config{})
		_ = switching.Surface(unstable, 10, 8, switching.Config{})
	}
}

// BenchmarkFig4Profile regenerates the C1 dwell-time tables (Fig. 4).
func BenchmarkFig4Profile(b *testing.B) {
	p := motivationalPlant(true)
	for i := 0; i < b.N; i++ {
		if _, err := switching.Compute(p, switching.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Profiles regenerates all six Table 1 rows.
func BenchmarkTable1Profiles(b *testing.B) {
	apps := plants.CaseStudy()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := switching.Compute(plants.SwitchingPlant(a), switching.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMappingProposed regenerates the paper's dimensioning result:
// first-fit with exact model checking over the six applications (2 slots).
func BenchmarkMappingProposed(b *testing.B) {
	ps := caseProfiles(b, "C1", "C2", "C3", "C4", "C5", "C6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapping.FirstFitCached(ps, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Slots) != 2 {
			b.Fatalf("slots = %d, want 2", len(res.Slots))
		}
	}
}

// BenchmarkMappingBaseline regenerates the baseline [9] dimensioning
// (4 slots under the calibrated reconstruction).
func BenchmarkMappingBaseline(b *testing.B) {
	m, err := plants.Profiles()
	if err != nil {
		b.Fatal(err)
	}
	rs := map[string]int{}
	for n, p := range m {
		rs[n] = p.R
	}
	apps, err := baseline.PaperCalibratedTimings(rs)
	if err != nil {
		b.Fatal(err)
	}
	order := []int{0, 4, 3, 5, 1, 2}
	an := baseline.Analysis{Strategy: baseline.NonPreemptiveDM}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots := an.FirstFitOrdered(apps, order)
		if len(slots) != 4 {
			b.Fatalf("baseline slots = %d, want 4", len(slots))
		}
	}
}

// BenchmarkFig8CoSim regenerates the Fig. 8 co-simulation (slot S1).
func BenchmarkFig8CoSim(b *testing.B) {
	ps := caseProfiles(b, "C1", "C5", "C4", "C3")
	var pls []switching.Plant
	for _, p := range ps {
		a, err := plants.ByName(p.Name)
		if err != nil {
			b.Fatal(err)
		}
		pls = append(pls, plants.SwitchingPlant(a))
	}
	r, err := sim.New(pls, ps, plants.SettleTol)
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.Scenario{
		Disturbances: []sim.Disturbance{{Sample: 0, App: 0}, {Sample: 0, App: 1}, {Sample: 0, App: 2}, {Sample: 0, App: 3}},
		Horizon:      120,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Missed {
			b.Fatal("missed on a verified slot")
		}
	}
}

// BenchmarkFig9CoSim regenerates the Fig. 9 co-simulation (slot S2).
func BenchmarkFig9CoSim(b *testing.B) {
	ps := caseProfiles(b, "C6", "C2")
	var pls []switching.Plant
	for _, p := range ps {
		a, err := plants.ByName(p.Name)
		if err != nil {
			b.Fatal(err)
		}
		pls = append(pls, plants.SwitchingPlant(a))
	}
	r, err := sim.New(pls, ps, plants.SettleTol)
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.Scenario{
		Disturbances: []sim.Disturbance{{Sample: 0, App: 1}, {Sample: 10, App: 0}},
		Horizon:      120,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyFull is the paper's hardest verification — the full
// four-application slot S1. The paper's
// UPPAAL run took 5 hours; the packed discrete checker needs well under a
// second.
func BenchmarkVerifyFull(b *testing.B) {
	ps := caseProfiles(b, "C1", "C5", "C4", "C3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Slot(ps, verify.Config{NondetTies: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Schedulable {
			b.Fatal("S1 must verify")
		}
	}
}

// BenchmarkVerifySequential is the same verification on the sequential
// engine (Workers: 1), the one behind a cold verdict of the pipeline
// benchmark's casestudy and slot-verify workloads: the profile to take
// when changing the visited set or the sequential driver.
func BenchmarkVerifySequential(b *testing.B) {
	ps := caseProfiles(b, "C1", "C5", "C4", "C3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Schedulable || res.States != 1440712 || res.Transitions != 1822844 || res.Depth != 50 {
			b.Fatalf("S1: %+v, want schedulable, 1440712 states, 1822844 transitions, depth 50", res)
		}
	}
}

// BenchmarkVerifyTANetwork measures the faithful Fig. 5–7 timed-automata
// network on slot S2 through the generic engine — the UPPAAL-equivalent
// path (the packed verifier is the production path).
func BenchmarkVerifyTANetwork(b *testing.B) {
	ps := caseProfiles(b, "C6", "C2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := verify.CheckNetwork(ps, ta.CheckOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("S2 must verify")
		}
	}
}

// BenchmarkAblationLazyPreemption verifies slot S2 under the future-work
// lazy-preemption policy (ablation of the paper's eager-preemption choice).
func BenchmarkAblationLazyPreemption(b *testing.B) {
	ps := caseProfiles(b, "C6", "C2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Slot(ps, verify.Config{NondetTies: true, Policy: sched.PreemptLazy})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Schedulable {
			b.Fatal("S2 must verify under lazy preemption")
		}
	}
}

// BenchmarkAblationGranularity profiles C1 with a coarse Tw grid — the
// memory/conservativeness trade-off knob of Sec. 3.
func BenchmarkAblationGranularity(b *testing.B) {
	p := motivationalPlant(true)
	for i := 0; i < b.N; i++ {
		if _, err := switching.Compute(p, switching.Config{TwGranularity: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalPartition computes the exact minimum slot count over all
// 63 subsets — the optimality check for the first-fit heuristic.
func BenchmarkOptimalPartition(b *testing.B) {
	if testing.Short() {
		b.Skip("verifies 63 subsets per iteration")
	}
	ps := caseProfiles(b, "C1", "C2", "C3", "C4", "C5", "C6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapping.OptimalCached(ps, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Slots) != 2 {
			b.Fatalf("optimal = %d slots", len(res.Slots))
		}
	}
}

// BenchmarkMappingWarm is what a repeated sweep pays once every verdict is
// known: first-fit over an 85-profile fleet plus the DP partitioner over ten
// of its profiles, on a warm admission cache. The five designs have the T*w
// and r of the archetypes `experiments -synthetic 100 -seed 1` keeps, 17
// instances each. A warm cache never reaches the verifier, so a utilisation
// rule stands in for it while the cache fills.
func BenchmarkMappingWarm(b *testing.B) {
	var fleet []*switching.Profile
	for _, d := range [][2]int{{12, 24}, {10, 22}, {12, 16}, {8, 18}, {22, 26}} {
		fleet = append(fleet, fleetProfiles(17, d[0], 3, 4, d[1])...)
	}
	sample := fleet[12:22] // five instances each of the first two designs
	utilisation := func(set []*switching.Profile) (bool, error) {
		u := 0.0
		for _, p := range set {
			u += float64(p.MaxTdwPlus()) / float64(p.R)
		}
		return u <= 1, nil
	}
	cache := mapping.NewCache()
	ff, err := mapping.FirstFitCached(fleet, utilisation, cache)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := mapping.OptimalCached(sample, utilisation, cache)
	if err != nil {
		b.Fatal(err)
	}
	checks := ff.Verifications + dp.Verifications
	cold := func([]*switching.Profile) (bool, error) {
		b.Fatal("the warm cache let a question through to the verifier")
		return false, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapping.FirstFitCached(fleet, cold, cache)
		if err != nil || len(res.Slots) != len(ff.Slots) {
			b.Fatalf("warm first-fit: %d slots (cold %d), err %v", len(res.Slots), len(ff.Slots), err)
		}
		if _, err := mapping.OptimalCached(sample, cold, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*checks), "ns/check")
	b.ReportMetric(float64(checks), "checks/op")
}

// BenchmarkCQLFCaseStudy is the Sec. 3 switching-stability certificate for
// the six case-study controller pairs (core's CheckSwitchingStability).
func BenchmarkCQLFCaseStudy(b *testing.B) {
	apps := plants.CaseStudy()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if res, err := control.SwitchingStable(a.Plant, a.KT, a.KE); err != nil || !res.Found {
				b.Fatalf("%s: no CQLF (%v)", a.Name, err)
			}
		}
	}
}

// --- Symmetry-quotient ablation ---------------------------------------------

// fleetProfiles builds n identical synthetic profiles (distinct names) with
// constant dwell windows — the fleet workload past the paper's six apps.
func fleetProfiles(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		k := twStar + 1
		minT, plusT := make([]int, k), make([]int, k)
		for j := range minT {
			minT[j], plusT[j] = dm, dp
		}
		out[i] = &switching.Profile{
			Name: fmt.Sprintf("F%d", i), TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
			R: r, Granularity: 1, JStar: twStar + dp,
			JAtMin: make([]int, k), JBest: make([]int, k),
		}
	}
	return out
}

// BenchmarkSymmetryQuotient measures what the quotient buys on a set small
// enough to also explore concretely: a four-instance fleet with and
// without the reduction (compare against BenchmarkSymmetryFull).
func BenchmarkSymmetryQuotient(b *testing.B) {
	ps := fleetProfiles(4, 6, 1, 2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.Slot(ps, verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymmetryFull is the concrete-space sibling of
// BenchmarkSymmetryQuotient.
func BenchmarkSymmetryFull(b *testing.B) {
	ps := fleetProfiles(4, 6, 1, 2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
