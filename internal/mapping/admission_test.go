package mapping_test

// The one admission policy: what Admission answers and counts for each
// outcome of the prefilter and the search, and the salts its stores get.

import (
	"errors"
	"testing"

	"tightcps/internal/core"
	"tightcps/internal/mapping"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// design returns n profiles of one design: wait at most twStar samples,
// then hold the slot for dwell.
func design(n, twStar, dwell int) []*switching.Profile {
	ps := make([]*switching.Profile, n)
	for i := range ps {
		p := &switching.Profile{Name: string(rune('A' + i)), TwStar: twStar, R: twStar + 50, Granularity: 1}
		for range twStar + 1 {
			p.TdwMinus = append(p.TdwMinus, dwell)
			p.TdwPlus = append(p.TdwPlus, dwell+1)
		}
		ps[i] = p
	}
	return ps
}

// backend is a Distributed hook that fails every search with err after
// states states.
func backend(states int, err error) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	return func([]*switching.Profile, verify.Config) (verify.Result, error) {
		return verify.Result{States: states}, err
	}
}

func TestAdmissionRefutesOnlyTheUnboundedModel(t *testing.T) {
	missing := design(2, 1, 5) // the second waits out the first's dwell
	if !verify.Refute(missing, sched.PreemptEager) {
		t.Fatal("fixture: replay finds no miss")
	}
	exact := mapping.NewAdmission(verify.Config{}, 0)
	if ok, err := exact.Verify(missing); ok || err != nil {
		t.Fatalf("unbounded: %v, %v; want a refuted no", ok, err)
	}
	if st := exact.Stats(); st.Refuted != 1 || st.States != 0 {
		t.Errorf("unbounded: %+v; want one refute and no search", st)
	}
	bounded := mapping.NewAdmission(verify.Config{MaxDisturbances: 2}, 0)
	if ok, err := bounded.Verify(missing); ok || err != nil {
		t.Fatalf("bounded: %v, %v; want the search's no", ok, err)
	}
	if st := bounded.Stats(); st.Refuted != 0 || st.States == 0 {
		t.Errorf("bounded: %+v; want a search and no refute", st)
	}
}

func TestAdmissionBudgetPolicy(t *testing.T) {
	fits := design(2, 20, 1)
	exact, err := verify.Slot(fits, verify.Config{NondetTies: true})
	if err != nil || !exact.Schedulable || exact.States < 2 {
		t.Fatalf("fixture: %+v, %v", exact, err)
	}
	budgeted := mapping.NewAdmission(verify.Config{MaxStates: 1}, 0)
	if ok, err := budgeted.Verify(fits); ok || err != nil {
		t.Fatalf("over budget: %v, %v; want a conservative no", ok, err)
	}
	if st := budgeted.Stats(); st.BudgetRejects != 1 || st.States == 0 {
		t.Errorf("over budget: %+v; want one counted reject", st)
	}
	// Without a budget the engine's own cap is not a verdict: the caller
	// gets the error.
	unbudgeted := mapping.NewAdmission(verify.Config{Distributed: backend(7, verify.ErrTooLarge)}, 2)
	if _, err := unbudgeted.Verify(fits); !errors.Is(err, verify.ErrTooLarge) {
		t.Fatalf("no budget: %v; want ErrTooLarge", err)
	}
	if st := unbudgeted.Stats(); st.BudgetRejects != 0 || st.States != 7 {
		t.Errorf("no budget: %+v; want the states and no reject", st)
	}
}

// TestAdmissionCountersAddUp: every outcome lands in its own counter, an
// error in none, and the searches' states sum.
func TestAdmissionCountersAddUp(t *testing.T) {
	boom := errors.New("node lost")
	for _, budget := range []int{0, 1} {
		adm := mapping.NewAdmission(verify.Config{MaxStates: budget}, 0)
		asks := []struct {
			set  []*switching.Profile
			want bool
		}{
			{design(2, 1, 5), false},   // refuted
			{design(13, 60, 1), false}, // over the packed encoding's 12 apps
			{design(1, 3, 1), budget == 0},
		}
		for i, a := range asks {
			if ok, err := adm.Verify(a.set); ok != a.want || err != nil {
				t.Fatalf("budget %d, ask %d: %v, %v; want %v", budget, i, ok, err, a.want)
			}
		}
		st := adm.Stats()
		if st.Refuted != 1 || st.EncodingRejects != 1 || st.BudgetRejects != budget || st.States == 0 {
			t.Errorf("budget %d: %+v; want 1 refuted, 1 encoding reject, %d budget rejects and states", budget, st, budget)
		}
	}
	failing := mapping.NewAdmission(verify.Config{MaxStates: 1, Distributed: backend(3, boom)}, 2)
	if _, err := failing.Verify(design(1, 3, 1)); !errors.Is(err, boom) {
		t.Fatalf("backend failure: %v; want it returned", err)
	}
	if st := failing.Stats(); st.BudgetRejects+st.EncodingRejects+st.Refuted != 0 || st.States != 3 {
		t.Errorf("backend failure: %+v; want only its states", st)
	}
}

// TestAdmissionSalts: unbudgeted salts are the values dimension -cachedir
// and the admission service's exact stores were written under before
// Admission existed; a budgeted store never shares the salt of an exact
// one.
func TestAdmissionSalts(t *testing.T) {
	for _, tc := range []struct {
		name string
		salt uint64
		want uint64
	}{
		{"core eager", core.Options{}.Admission().Salt(), 0xb2938d7bb5691066},
		{"core lazy", core.Options{Policy: sched.PreemptLazy}.Admission().Salt(), 0x10af0e044fee10cb},
		{"zero config", mapping.NewAdmission(verify.Config{}, 0).Salt(), 0xb2938d7bb5691066},
		{"exact on 2 nodes", mapping.NewAdmission(verify.Config{Workers: 3}, 2).Salt(),
			mapping.VerifyConfigKey(verify.Config{NondetTies: true}, 2)},
	} {
		if tc.salt != tc.want {
			t.Errorf("%s: salt %#x, want %#x", tc.name, tc.salt, tc.want)
		}
	}
	budget := verify.Config{NondetTies: true, MaxStates: 200}
	for _, nodes := range []int{0, 2} {
		sweep := budget
		sweep.SymmetryReduction = true
		exact := mapping.VerifyConfigKey(budget)
		if nodes > 0 {
			exact = mapping.VerifyConfigKey(budget, uint64(nodes))
		}
		if got := mapping.NewAdmission(sweep, nodes).Salt(); got == exact {
			t.Errorf("%d nodes: the budgeted store shares the exact store's salt %#x", nodes, got)
		}
	}
}
