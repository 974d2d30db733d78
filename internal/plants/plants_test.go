package plants

import (
	"testing"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
)

func TestCaseStudyWellFormed(t *testing.T) {
	apps := CaseStudy()
	if len(apps) != 6 {
		t.Fatalf("case study has %d apps", len(apps))
	}
	for _, a := range apps {
		if a.Plant.H != H {
			t.Errorf("%s: sampling period %v", a.Name, a.Plant.H)
		}
		if a.KT.Order() != a.Plant.Order() {
			t.Errorf("%s: KT order %d vs plant %d", a.Name, a.KT.Order(), a.Plant.Order())
		}
		if a.KE.Order() != a.Plant.Order()+1 {
			t.Errorf("%s: KE order %d vs augmented %d", a.Name, a.KE.Order(), a.Plant.Order()+1)
		}
		if len(a.X0) != a.Plant.Order() {
			t.Errorf("%s: X0 length %d", a.Name, len(a.X0))
		}
		if a.R <= a.JStar {
			t.Errorf("%s: r=%d ≤ J*=%d violates the sporadic model", a.Name, a.R, a.JStar)
		}
	}
}

// TestAllClosedLoopsStable: with the documented C6 erratum corrected, every
// (plant, KT) and (augmented plant, KE) pair is Schur stable — the paper's
// design precondition.
func TestAllClosedLoopsStable(t *testing.T) {
	for _, a := range CaseStudy() {
		rT, err := mat.SpectralRadius(lti.ClosedLoop(a.Plant, a.KT))
		if err != nil || rT >= 1 {
			t.Errorf("%s: MT loop spectral radius %.4f (err=%v)", a.Name, rT, err)
		}
		rE, err := mat.SpectralRadius(lti.ClosedLoop(a.Plant.Augmented(), a.KE))
		if err != nil || rE >= 1 {
			t.Errorf("%s: ME loop spectral radius %.4f (err=%v)", a.Name, rE, err)
		}
	}
}

// TestAllPlantsControllable: each case-study plant is controllable (needed
// for the pole-placement designs the paper cites): its single-input
// controllability matrix is square and has the inverse PlacePoles uses.
func TestAllPlantsControllable(t *testing.T) {
	plants := CaseStudy()
	if len(plants) != 6 {
		t.Fatalf("%d case-study plants, want 6", len(plants))
	}
	for _, a := range plants {
		if _, err := mat.Inverse(a.Plant.ControllabilityMatrix()); err != nil {
			t.Errorf("%s: plant not controllable: %v", a.Name, err)
		}
	}
}

func TestPaperTable1Consistent(t *testing.T) {
	for name, row := range PaperTable1 {
		if len(row.TdwMinus) != row.TwStar+1 {
			t.Errorf("%s: Tdw− has %d entries, T*w=%d", name, len(row.TdwMinus), row.TwStar)
		}
		if len(row.TdwPlus) != row.TwStar+1 {
			t.Errorf("%s: Tdw+ has %d entries, T*w=%d", name, len(row.TdwPlus), row.TwStar)
		}
		for i := range row.TdwMinus {
			if row.TdwMinus[i] > row.TdwPlus[i] {
				t.Errorf("%s: paper table has Tdw−[%d] > Tdw+[%d]", name, i, i)
			}
		}
		if row.JT >= row.JE {
			t.Errorf("%s: paper JT=%d ≥ JE=%d", name, row.JT, row.JE)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("C3")
	if err != nil || a.Name != "C3" {
		t.Fatalf("ByName(C3) = %v, %v", a.Name, err)
	}
	if _, err := ByName("C9"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSwitchingPlantAdapter(t *testing.T) {
	a := C1()
	p := SwitchingPlant(a)
	if p.Name != a.Name || p.JStar != a.JStar || p.R != a.R || p.Sys != a.Plant {
		t.Fatalf("adapter mismatch: %+v", p)
	}
}

// TestProfilesCacheStable: repeated Profiles() calls return the same map
// (memoised), and ProfileList respects order.
func TestProfilesCacheStable(t *testing.T) {
	m1, err := Profiles()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Profiles()
	if err != nil {
		t.Fatal(err)
	}
	for k := range m1 {
		if m1[k] != m2[k] {
			t.Fatalf("cache returned different pointers for %s", k)
		}
	}
	ps, err := ProfileList("C2", "C1")
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Name != "C2" || ps[1].Name != "C1" {
		t.Fatalf("ProfileList order wrong: %s, %s", ps[0].Name, ps[1].Name)
	}
	if _, err := ProfileList("C9"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestMotivationalGainsMatchC1: C1 is the motivational system with the
// stable gain pair.
func TestMotivationalGainsMatchC1(t *testing.T) {
	a := C1()
	if !mat.EqualApprox(a.KT.K, MotivationalKT.K, 0) {
		t.Fatal("C1 KT differs from Eq. (7)")
	}
	if !mat.EqualApprox(a.KE.K, MotivationalKEStable.K, 0) {
		t.Fatal("C1 KE differs from Eq. (8)")
	}
	if !mat.EqualApprox(Motivational().Phi, a.Plant.Phi, 0) {
		t.Fatal("C1 plant differs from Eq. (6)")
	}
}
