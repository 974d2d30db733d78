package sim

import (
	"testing"

	"tightcps/internal/flexray"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

func runner(t *testing.T, names ...string) (*Runner, []switching.Plant) {
	t.Helper()
	m, err := plants.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	var pls []switching.Plant
	var profs []*switching.Profile
	for _, n := range names {
		a, err := plants.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		pls = append(pls, plants.SwitchingPlant(a))
		profs = append(profs, m[n])
	}
	r, err := New(pls, profs, plants.SettleTol)
	if err != nil {
		t.Fatal(err)
	}
	return r, pls
}

// TestFig8Scenario reproduces Fig. 8: simultaneous disturbances at the four
// applications of slot S1. Every application meets its requirement; the
// grant order follows EDF; the paper's preemption pattern holds (C1, C5, C4
// preempted at their Tdw−; C3, last in line, runs to its Tdw+ unpreempted).
func TestFig8Scenario(t *testing.T) {
	r, pls := runner(t, "C1", "C5", "C4", "C3")
	res, err := r.Run(Scenario{
		Disturbances: []Disturbance{{0, 0}, {0, 1}, {0, 2}, {0, 3}},
		Horizon:      120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed {
		t.Fatal("deadline missed in the verified scenario")
	}
	for i, a := range res.Apps {
		if !a.Met {
			t.Errorf("%s: J=%d exceeds J*=%d", a.Name, a.J, pls[i].JStar)
		}
	}
	// Grant order: C1 (T*w=11) first, then C5, C4, C3 (T*w=15) last.
	var order []int
	for _, e := range res.Events {
		if e.Kind == sched.GrantedEv {
			order = append(order, e.App)
		}
	}
	want := []int{0, 1, 2, 3}
	if len(order) != 4 {
		t.Fatalf("grants = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	// Eviction pattern: first three preempted, C3 vacated at its Tdw+.
	var kinds []sched.EventKind
	for _, e := range res.Events {
		if e.Kind == sched.PreemptedEv || e.Kind == sched.VacatedEv {
			kinds = append(kinds, e.Kind)
		}
	}
	wantKinds := []sched.EventKind{sched.PreemptedEv, sched.PreemptedEv, sched.PreemptedEv, sched.VacatedEv}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("eviction kinds %v, want %v", kinds, wantKinds)
		}
	}
	// Occupancy has no gaps while all four queue: samples 0..15 are busy.
	for k := 0; k < 16; k++ {
		if res.Occupancy[k] < 0 {
			t.Fatalf("slot idle at %d while applications wait", k)
		}
	}
}

// TestFig9Scenario reproduces Fig. 9: C2 disturbed at sample 0, C6 ten
// samples later. Neither is preempted; both achieve their dedicated-slot
// settling time JT, and C2 needs only ~10 TT samples (paper: 10; our table
// gives 9 — the documented ±1 reproduction slack).
func TestFig9Scenario(t *testing.T) {
	r, _ := runner(t, "C6", "C2")
	res, err := r.Run(Scenario{
		Disturbances: []Disturbance{{0, 1}, {10, 0}},
		Horizon:      120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed {
		t.Fatal("missed")
	}
	m, _ := plants.Profiles()
	if got, want := res.Apps[1].J, m["C2"].JT; got != want {
		t.Errorf("C2 J=%d, want JT=%d", got, want)
	}
	if got, want := res.Apps[0].J, m["C6"].JT; got != want {
		t.Errorf("C6 J=%d, want JT=%d", got, want)
	}
	if res.Apps[1].TTSamples < 9 || res.Apps[1].TTSamples > 10 {
		t.Errorf("C2 used %d TT samples, paper reports 10 (±1)", res.Apps[1].TTSamples)
	}
	for _, e := range res.Events {
		if e.Kind == sched.PreemptedEv {
			t.Errorf("unexpected preemption: %+v", e)
		}
	}
}

// TestUndisturbedAppsStayQuiet: with no disturbances all outputs are zero
// and the slot stays idle.
func TestUndisturbedAppsStayQuiet(t *testing.T) {
	r, _ := runner(t, "C1", "C5")
	res, err := r.Run(Scenario{Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		for k, y := range a.Y {
			if y != 0 {
				t.Fatalf("%s: y[%d]=%v without disturbance", a.Name, k, y)
			}
		}
		if a.TTSamples != 0 {
			t.Fatalf("%s: TT used while quiet", a.Name)
		}
	}
	for k, o := range res.Occupancy {
		if o != -1 {
			t.Fatalf("slot busy at %d", k)
		}
	}
}

// TestOverloadScenarioMisses: replay the verifier's counterexample for the
// unschedulable set {C1,C5,C4,C6} through the co-simulation; the miss must
// reproduce, and the failed application must overshoot its J* in the
// actual closed-loop response. (Simultaneous disturbances alone are NOT the
// worst case for this set — the adversarial schedule staggers them.)
func TestOverloadScenarioMisses(t *testing.T) {
	r, pls := runner(t, "C1", "C5", "C4", "C6")
	profs, err := plants.ProfileList("C1", "C5", "C4", "C6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := verify.Config{Workers: 1}
	vres, err := verify.Slot(profs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vres.Schedulable {
		t.Fatal("expected unschedulable set")
	}
	schedule, err := verify.Counterexample(profs, cfg, vres)
	if err != nil {
		t.Fatal(err)
	}
	var dists []Disturbance
	for k, apps := range schedule {
		for _, a := range apps {
			dists = append(dists, Disturbance{Sample: k, App: a})
		}
	}
	// The final adversarial step: disturb everything still quiet.
	last := len(schedule)
	seen := map[int]int{} // app → last disturbance sample
	for _, d := range dists {
		seen[d.App] = d.Sample
	}
	for i := range pls {
		s, was := seen[i]
		if !was || last-s >= pls[i].R {
			dists = append(dists, Disturbance{Sample: last, App: i})
		}
	}
	res, err := r.Run(Scenario{Disturbances: dists, Horizon: last + 160})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Missed {
		t.Fatal("verifier counterexample did not reproduce a miss in co-simulation")
	}
	anyLate := false
	for i, a := range res.Apps {
		if !a.Met && a.J > pls[i].JStar {
			anyLate = true
		}
	}
	if !anyLate {
		t.Fatal("miss flagged but every closed loop met its requirement")
	}
}

// TestSwitchingSequenceMatchesOfflineTables: in the Fig. 8 run, C1 waits 0
// and dwells exactly Tdw−(0); replaying that (Tw, dwell) through the offline
// analysis gives the same settling time as the co-simulation measured.
func TestSwitchingSequenceMatchesOfflineTables(t *testing.T) {
	r, pls := runner(t, "C1", "C5", "C4", "C3")
	res, err := r.Run(Scenario{
		Disturbances: []Disturbance{{0, 0}, {0, 1}, {0, 2}, {0, 3}},
		Horizon:      200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var grantTw, dwell int
	for _, e := range res.Events {
		if e.App == 0 && e.Kind == sched.GrantedEv {
			grantTw = e.Tw
		}
		if e.App == 0 && (e.Kind == sched.PreemptedEv || e.Kind == sched.VacatedEv) {
			dwell = e.CT
		}
	}
	j, ok := switching.SettleAfterSwitch(pls[0], grantTw, dwell, switching.Config{})
	if !ok {
		t.Fatal("offline replay did not settle")
	}
	if j != res.Apps[0].J {
		t.Fatalf("offline J=%d vs co-sim J=%d for (Tw=%d, dwell=%d)", j, res.Apps[0].J, grantTw, dwell)
	}
}

func TestScenarioValidation(t *testing.T) {
	r, _ := runner(t, "C1")
	if _, err := r.Run(Scenario{Disturbances: []Disturbance{{0, 5}}, Horizon: 10}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := r.Run(Scenario{Disturbances: []Disturbance{{50, 0}}, Horizon: 10}); err == nil {
		t.Fatal("out-of-horizon disturbance accepted")
	}
	m, _ := plants.Profiles()
	if _, err := New(nil, []*switching.Profile{m["C1"]}, 0.02); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestRunWithBus: the bus-level run produces TT transmissions exactly for
// the occupant and dynamic transmissions for everyone else.
func TestRunWithBus(t *testing.T) {
	r, _ := runner(t, "C6", "C2")
	cfg := flexray.Config{StaticSlots: 2, SlotLen: 1, MiniSlots: 30, MiniSlotLen: 0.1}
	res, err := r.RunWithBus(Scenario{
		Disturbances: []Disturbance{{0, 1}, {10, 0}},
		Horizon:      60,
	}, cfg, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Count per-cycle static transmissions; they must match occupancy.
	staticBy := map[int]int{} // cycle → frame
	for _, tx := range res.Transmissions {
		if tx.Static {
			if prev, dup := staticBy[tx.Cycle]; dup {
				t.Fatalf("two static txs in cycle %d: %d and %d", tx.Cycle, prev, tx.FrameID)
			}
			staticBy[tx.Cycle] = tx.FrameID
		}
	}
	for k, holder := range res.Occupancy {
		fid, has := staticBy[k]
		if holder < 0 {
			if has {
				t.Fatalf("cycle %d: static tx %d with idle slot", k, fid)
			}
			continue
		}
		if !has || fid != holder+1 {
			t.Fatalf("cycle %d: occupant %d but static tx %v", k, holder, staticBy[k])
		}
	}
	// Every sample, every app transmits exactly once (TT or ET).
	perCycle := map[int]int{}
	for _, tx := range res.Transmissions {
		perCycle[tx.Cycle]++
	}
	for k := 0; k < 60; k++ {
		if perCycle[k] != 2 {
			t.Fatalf("cycle %d carried %d transmissions, want 2", k, perCycle[k])
		}
	}
}

// TestMonteCarloVerifiedSlotNeverMisses: 50 random sporadic campaigns on
// the verified paper slot S2 — no run may miss, and the worst observed
// settling slack stays non-negative (statistical cross-check of the formal
// verdict).
func TestMonteCarloVerifiedSlotNeverMisses(t *testing.T) {
	r, pls := runner(t, "C6", "C2")
	res, err := r.MonteCarlo(50, SporadicConfig{Seed: 42, Rate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("%d/%d runs missed on a verified slot", res.Misses, res.Runs)
	}
	if res.Disturbances == 0 {
		t.Fatal("campaign injected no disturbances")
	}
	for i, slack := range res.WorstSlack {
		if slack < 0 {
			t.Errorf("%s: worst slack %d (J exceeded J*)", pls[i].Name, slack)
		}
	}
}

// TestMonteCarloOverloadedSlotMisses: the same campaign on the rejected set
// {C1,C5,C4,C6} must eventually hit a miss (the verifier says one exists;
// random search finds it with high probability at this rate).
func TestMonteCarloOverloadedSlotMisses(t *testing.T) {
	r, _ := runner(t, "C1", "C5", "C4", "C6")
	res, err := r.MonteCarlo(80, SporadicConfig{Seed: 7, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("no misses observed on an unschedulable set (unlucky seed or semantics bug)")
	}
}

func TestRandomScenarioRespectsInterArrival(t *testing.T) {
	rs := []int{10, 25}
	sc := RandomScenario(SporadicConfig{Seed: 3, Rate: 0.5, Horizon: 400}, rs)
	last := map[int]int{}
	for _, d := range sc.Disturbances {
		if prev, ok := last[d.App]; ok {
			if d.Sample-prev < rs[d.App] {
				t.Fatalf("app %d disturbed at %d and %d (r=%d)", d.App, prev, d.Sample, rs[d.App])
			}
		}
		last[d.App] = d.Sample
	}
	if len(sc.Disturbances) < 10 {
		t.Fatalf("suspiciously few disturbances: %d", len(sc.Disturbances))
	}
}

func TestMonteCarloValidation(t *testing.T) {
	r, _ := runner(t, "C6")
	if _, err := r.MonteCarlo(0, SporadicConfig{}); err == nil {
		t.Fatal("zero runs accepted")
	}
}
