package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// prof builds a synthetic profile with constant dwell windows.
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func caseProfiles(t testing.TB, names ...string) []*switching.Profile {
	t.Helper()
	ps, err := plants.ProfileList(names...)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestSingleAppAlwaysSchedulable(t *testing.T) {
	res, err := Slot([]*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("single app unschedulable: %+v", res)
	}
}

func TestObviousOverloadUnschedulable(t *testing.T) {
	// Two apps, each needing the slot immediately (T*w=0): simultaneous
	// disturbances cannot both be served.
	ps := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	cfg := Config{NondetTies: true}
	res, err := Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable || res.Depth != 0 {
		t.Fatalf("overload: schedulable=%v depth %d, want a miss in the initial state's expansion", res.Schedulable, res.Depth)
	}
	// No disturbance precedes the miss: the schedule is empty, not absent.
	if schedule, err := Counterexample(ps, cfg, res); err != nil || schedule == nil || len(schedule) != 0 {
		t.Fatalf("Counterexample = %v, %v; want an empty non-nil schedule", schedule, err)
	}
}

func TestTwoLooseAppsSchedulable(t *testing.T) {
	// Each can wait longer than the other's maximum tenure.
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	res, err := Slot(ps, Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("loose pair unschedulable: violator %d", res.Violator)
	}
}

// TestPaperSlotS1 reproduces the paper's hardest verification: C1, C5, C4
// and C3 share slot S1 and meet all requirements in every scenario.
func TestPaperSlotS1(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C1", "C5", "C4", "C3"), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("paper slot S1 unschedulable: violator %d", res.Violator)
	}
	if res.States < 100000 {
		t.Fatalf("suspiciously few states for S1: %d", res.States)
	}
}

// TestPaperSlotS2 reproduces slot S2 = {C6, C2}.
func TestPaperSlotS2(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C6", "C2"), Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("paper slot S2 unschedulable")
	}
}

// TestPaperRejections: the combinations the paper's first-fit had to reject
// are indeed unschedulable.
func TestPaperRejections(t *testing.T) {
	for _, names := range [][]string{
		{"C1", "C5", "C4", "C6"},
		{"C1", "C5", "C4", "C2"},
	} {
		res, err := Slot(caseProfiles(t, names...), Config{NondetTies: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			t.Errorf("%v reported schedulable; paper rejects it", names)
		}
	}
}

// TestCounterexampleReplaysInArbiter: the schedule Counterexample rebuilds
// from a violation found by any engine — the sequential search or two and
// three lanes — has one step per level above the miss, and replayed
// through the runtime arbiter with deterministic ties it reproduces the
// violator's miss: the two implementations share semantics. The inputs are
// hand-made pairs, a case-study set, the first generated slots that violate
// under deterministic ties and a fleet of eight 7-bit lanes that fills the
// word.
func TestCounterexampleReplaysInArbiter(t *testing.T) {
	type input struct {
		name string
		ps   []*switching.Profile
	}
	cases := []input{
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}},
		{"pair", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}},
		{"C1C5C4C6", caseProfiles(t, "C1", "C5", "C4", "C6")},
		{"fullWord", fleet(8, 2, 1, 2, 32)},
	}
	generated := 0
	for i, ps := range syntheticSlots(t, 32) {
		if generated == 3 {
			break
		}
		// Slots past the budget are left out to keep the matrix quick.
		if res, err := Slot(ps, Config{Workers: 1, MaxStates: 150_000}); err == nil && !res.Schedulable {
			cases = append(cases, input{fmt.Sprintf("synthetic%d", i), ps})
			generated++
		}
	}
	if generated < 3 {
		t.Fatalf("only %d generated slots violate under deterministic ties", generated)
	}
	for _, c := range cases {
		v := testVerifier(t, c.ps, Config{}) // deterministic ties, like the arbiter
		for _, workers := range []int{1, 2, 3} {
			name := fmt.Sprintf("%s/workers=%d", c.name, workers)
			v.cfg.Workers = workers
			res, err := v.Run()
			if err != nil || res.Schedulable {
				t.Fatalf("%s: schedulable=%v, %v; want a violation", name, res.Schedulable, err)
			}
			schedule, err := rebuildPath(v, res)
			if err != nil || len(schedule) != res.Depth {
				t.Fatalf("%s: %d-step schedule (%v) for a miss at depth %d", name, len(schedule), err, res.Depth)
			}
			if !replayMisses(t, c.ps, schedule, res.Violator) {
				t.Errorf("%s: %s's miss did not reproduce in the arbiter", name, c.ps[res.Violator].Name)
			}
		}
	}
}

// replayMisses replays a schedule through the runtime arbiter, then one more
// adversarial sample (the violating expansion step) disturbing every
// eligible application, then waits out the occupant for at most the
// violator's T*w: it reports whether the violator missed its deadline.
func replayMisses(t *testing.T, ps []*switching.Profile, schedule [][]int, violator int) bool {
	t.Helper()
	arb := sched.NewArbiter(ps, sched.Options{})
	for _, dist := range schedule {
		if err := arb.Tick(dist); err != nil {
			t.Fatalf("replay error: %v", err)
		}
	}
	var dist []int
	for i := range ps {
		if arb.Phase(i) == sched.Steady {
			dist = append(dist, i)
		}
	}
	if err := arb.Tick(dist); err != nil {
		t.Fatalf("final replay tick: %v", err)
	}
	for k := 0; k <= ps[violator].TwStar+1 && arb.Phase(violator) != sched.Failed; k++ {
		if err := arb.Tick(nil); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
	}
	return arb.Phase(violator) == sched.Failed
}

// TestRandomSchedulesNeverMissOnVerifiedSets: fuzz the runtime arbiter with
// admissible random disturbance schedules on sets the verifier proved
// schedulable; no run may miss a deadline.
func TestRandomSchedulesNeverMissOnVerifiedSets(t *testing.T) {
	sets := [][]*switching.Profile{
		caseProfiles(t, "C6", "C2"),
		caseProfiles(t, "C1", "C5", "C4"),
		{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)},
	}
	for si, ps := range sets {
		res, err := Slot(ps, Config{NondetTies: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("set %d: expected schedulable", si)
		}
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		for trial := 0; trial < 30; trial++ {
			arb := sched.NewArbiter(ps, sched.Options{})
			for k := 0; k < 400; k++ {
				var dist []int
				for i := range ps {
					if arb.Phase(i) == sched.Steady && rng.Float64() < 0.3 {
						dist = append(dist, i)
					}
				}
				if err := arb.Tick(dist); err != nil {
					t.Fatalf("set %d trial %d: %v", si, trial, err)
				}
			}
			if arb.Missed() {
				t.Fatalf("set %d trial %d: arbiter missed on a verified set", si, trial)
			}
		}
	}
}

// TestLazyPolicyVerification: the future-work lazy-preemption policy is
// also safe for the paper's slot S2 (verified) — an ablation the paper
// suggests.
func TestLazyPolicyVerification(t *testing.T) {
	res, err := Slot(caseProfiles(t, "C6", "C2"), Config{NondetTies: true, Policy: sched.PreemptLazy})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("lazy policy unsafe for S2")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty app set accepted")
	}
	// r ≤ T*w violates the sporadic model.
	if _, err := New([]*switching.Profile{prof("A", 10, 2, 4, 5)}, Config{}); err == nil {
		t.Fatal("r ≤ T*w accepted")
	}
	// Oversized clocks.
	if _, err := New([]*switching.Profile{prof("A", 5, 2, 4, 200)}, Config{}); err == nil {
		t.Fatal("r > 127 accepted")
	}
	// Thirteen apps exceed the application cap.
	var many []*switching.Profile
	for i := 0; i < 13; i++ {
		many = append(many, prof("A", 5, 2, 4, 20))
	}
	if _, err := New(many, Config{}); err == nil {
		t.Fatal("13 apps accepted")
	}
	// The symmetry quotient forgets which application is in which lane,
	// so it has no counterexample.
	if _, err := Counterexample([]*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)},
		Config{SymmetryReduction: true}, Result{}); err == nil || !strings.Contains(err.Error(), "SymmetryReduction") {
		t.Fatalf("Counterexample under SymmetryReduction: %v, want a refusal naming it", err)
	}
	// The rebuild is a search of its own and keeps to the state budget.
	pair := []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}
	res, err := Slot(pair, Config{Workers: 1})
	if err != nil || res.Schedulable {
		t.Fatalf("pair: schedulable=%v, %v; want a violation", res.Schedulable, err)
	}
	if _, err := Counterexample(pair, Config{MaxStates: 5}, res); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Counterexample over a 5-state budget: %v, want ErrTooLarge", err)
	}
}

// TestClockLimitErrorNamesField: a profile whose T*w or r does not fit the
// 7-bit clocks is refused with ErrEncoding, and the message names the
// application, the field over the limit and its value — T*w = 130 used to be
// reported as "clocks up to 200", r's value.
func TestClockLimitErrorNamesField(t *testing.T) {
	ok := prof("Fine", 5, 2, 4, 20)
	for _, c := range []struct {
		bad  *switching.Profile
		want string
	}{
		{prof("SlowWait", 130, 2, 4, 200), "SlowWait has T*w=130 "},
		{prof("RareEvent", 5, 2, 4, 200), "RareEvent has r=200 "},
		{prof("Edge", 127, 2, 4, 128), "Edge has r=128 "},
	} {
		_, err := New([]*switching.Profile{ok, c.bad}, Config{})
		if !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "at most 127") {
			t.Errorf("%s: error %q, want ErrEncoding naming %q and the limit 127", c.bad.Name, err, c.want)
		}
	}
	if _, err := New([]*switching.Profile{prof("AtLimit", 126, 2, 4, 127)}, Config{}); err != nil {
		t.Errorf("T*w=126, r=127 fit the clocks: %v", err)
	}
	// The dwell limit names its application the same way.
	_, err := New([]*switching.Profile{ok, prof("LongDwell", 5, 2, 16, 40)}, Config{})
	if !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), "LongDwell has Tdw+=16 ") || !strings.Contains(err.Error(), "at most 15") {
		t.Errorf("LongDwell: error %q, want ErrEncoding naming the application, Tdw+=16 and the limit 15", err)
	}
}

func TestMaxStatesAborts(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	_, err := Slot(ps, Config{NondetTies: true, MaxStates: 1000})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// TestSearchesReleaseMappedTables: a search hands its visited tables back
// when it ends, on every exit — the sequential driver and two lanes, at a
// verdict, at MaxStates, at a
// violation, and Counterexample's rebuild at its miss and at MaxStates — so
// the table-bytes gauge is back at its starting value after each. Every
// cell first proves that it mapped a table, so the release it checks is of
// memory off the heap: each runs the smallest case-study slot that crosses
// the 2 MiB line there.
func TestSearchesReleaseMappedTables(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("tables are mapped off the heap only on Linux")
	}
	base := obsTableBytes.Value()
	for _, c := range []struct {
		workers          int
		ok, viol, over   []*switching.Profile
		overMax, violMax int // budgets that over's search and viol's rebuild exceed
	}{
		{1, caseProfiles(t, "C1", "C2", "C4"), caseProfiles(t, "C2", "C3", "C4", "C5", "C6"),
			caseProfiles(t, "C1", "C2", "C4"), 100_000, 100_000},
		{2, caseProfiles(t, "C2", "C3", "C4"), caseProfiles(t, "C1", "C5", "C4", "C3", "C6"),
			caseProfiles(t, "C1", "C2", "C3", "C4", "C5", "C6"), 400_000, 100_000},
	} {
		name := fmt.Sprintf("workers=%d", c.workers)
		// exit runs one search, which must end in want (nil: a verdict)
		// having mapped a table, and give every mapped byte back.
		exit := func(step string, want error, search func() error) {
			t.Helper()
			mapped := tablesMapped.Load()
			if err := search(); !errors.Is(err, want) {
				t.Fatalf("%s/%s: %v, want %v", name, step, err, want)
			}
			if tablesMapped.Load() == mapped {
				t.Fatalf("%s/%s: mapped no table, so it cannot show one released", name, step)
			}
			if got := obsTableBytes.Value() - base; got != 0 {
				t.Fatalf("%s/%s: %d table bytes still mapped after the search", name, step, got)
			}
		}
		v := testVerifier(t, c.ok, Config{NondetTies: true})
		v.cfg.Workers = c.workers
		exit("verdict", nil, func() error {
			res, err := v.Run()
			if err == nil && !res.Schedulable {
				t.Fatalf("%s: ok slot %+v", name, res)
			}
			return err
		})

		v = testVerifier(t, c.viol, Config{NondetTies: true})
		v.cfg.Workers = c.workers
		var res Result
		exit("violation", nil, func() error {
			var err error
			res, err = v.Run()
			if err == nil && res.Schedulable {
				t.Fatalf("%s: violating slot %+v", name, res)
			}
			return err
		})
		exit("counterexample", nil, func() error { _, err := rebuildPath(v, res); return err })
		v.cfg.MaxStates = c.violMax
		exit("counterexample at MaxStates", ErrTooLarge, func() error { _, err := rebuildPath(v, res); return err })

		v = testVerifier(t, c.over, Config{NondetTies: true, MaxStates: c.overMax})
		v.cfg.Workers = c.workers
		exit("at MaxStates", ErrTooLarge, func() error { _, err := v.Run(); return err })
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	ps := caseProfiles(t, "C1", "C5", "C4", "C3")
	v, err := New(ps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	states := []cstate{
		{occ: -1},
		{phase: [maxApps]uint8{pWaiting, pSteady, pCooldown, pGranted}, val: [maxApps]uint8{3, 0, 17, 5}, occ: 3, cT: 2},
		{phase: [maxApps]uint8{pCooldown, pCooldown, pCooldown, pCooldown}, val: [maxApps]uint8{24, 24, 39, 49}, occ: -1},
	}
	for i, c := range states {
		var d cstate
		v.unpack(v.pack(&c), &d)
		if d != c {
			t.Fatalf("state %d round trip: %+v vs %+v", i, d, c)
		}
	}
}
