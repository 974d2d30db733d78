package control_test

import (
	"math"
	"testing"

	. "tightcps/internal/control"
	"tightcps/internal/lti"
	"tightcps/internal/mat"
	"tightcps/internal/plants"
)

func TestSwitchedPairShapesAndSpectra(t *testing.T) {
	s := plants.Motivational()
	aT, aE := SwitchedPair(s, plants.MotivationalKT, plants.MotivationalKEStable)
	if aT.Rows() != 4 || aE.Rows() != 4 {
		t.Fatalf("augmented pair not 4x4: %d, %d", aT.Rows(), aE.Rows())
	}
	// aT's spectrum = spectrum of Φ−ΓKT plus a zero (the held input is
	// overwritten every MT sample).
	eigT, err := mat.Eigenvalues(aT)
	if err != nil {
		t.Fatal(err)
	}
	eigCL, err := mat.Eigenvalues(lti.ClosedLoop(s, plants.MotivationalKT))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, l := range eigT {
		if math.Hypot(real(l), imag(l)) < 1e-9 {
			zero++
		}
	}
	if zero < 1 {
		t.Fatalf("augmented MT matrix lacks the structural zero eigenvalue: %v", eigT)
	}
	_ = eigCL
	// Both mode matrices must be Schur stable for the stable pair.
	for i, a := range []*mat.Matrix{aT, aE} {
		ok, err := mat.IsSchurStable(a)
		if err != nil || !ok {
			t.Fatalf("mode %d unstable (err=%v)", i, err)
		}
	}
}

// TestSwitchedPairSimulationConsistency: stepping the augmented matrices
// reproduces the switching.Simulator semantics (cross-layer consistency of
// the mode dynamics).
func TestSwitchedPairSimulationConsistency(t *testing.T) {
	s := plants.Motivational()
	aT, aE := SwitchedPair(s, plants.MotivationalKT, plants.MotivationalKEStable)
	// Sequence: 3×ME, 2×MT, 4×ME starting from z0=[1 0 0 0].
	z := []float64{1, 0, 0, 0}
	seq := []*mat.Matrix{aE, aE, aE, aT, aT, aE, aE, aE, aE}
	// Manual reference simulation of the same switched loop.
	x := []float64{1, 0, 0}
	uPrev := 0.0
	for step, m := range seq {
		z = m.MulVec(z)
		if m == aT {
			u := -plants.MotivationalKT.K.MulVec(x)[0]
			x = s.Step(x, u)
			uPrev = u
		} else {
			zz := append(append([]float64{}, x...), uPrev)
			cmd := -plants.MotivationalKEStable.K.MulVec(zz)[0]
			x = s.Step(x, uPrev)
			uPrev = cmd
		}
		for i := 0; i < 3; i++ {
			if math.Abs(z[i]-x[i]) > 1e-9 {
				t.Fatalf("step %d state %d: aug %v vs ref %v", step, i, z[i], x[i])
			}
		}
		if math.Abs(z[3]-uPrev) > 1e-9 {
			t.Fatalf("step %d held input: aug %v vs ref %v", step, z[3], uPrev)
		}
	}
}

// TestCQLFStablePairFound reproduces the paper's claim that KT and KsE are
// switching stable: a common quadratic Lyapunov function exists and our
// search finds one.
func TestCQLFStablePairFound(t *testing.T) {
	res, err := SwitchingStable(plants.Motivational(), plants.MotivationalKT, plants.MotivationalKEStable)
	if err != nil {
		t.Fatalf("no CQLF found for the stable pair: %v", err)
	}
	if !res.Found || res.Margin <= 0 {
		t.Fatalf("result not positive: %+v", res)
	}
	// Re-verify the certificate independently.
	aT, aE := SwitchedPair(plants.Motivational(), plants.MotivationalKT, plants.MotivationalKEStable)
	if m, ok := CheckCQLF(res.P, aT, aE); !ok || m <= 0 {
		t.Fatalf("returned certificate does not verify: margin=%v ok=%v", m, ok)
	}
}

// TestCQLFUnstablePairNotFound: for KT and KuE the paper demonstrates
// switching instability; no CQLF can exist, so the search must fail.
func TestCQLFUnstablePairNotFound(t *testing.T) {
	res, err := SwitchingStable(plants.Motivational(), plants.MotivationalKT, plants.MotivationalKEUnstable)
	if err == nil || res.Found {
		t.Fatalf("CQLF reported for a switching-unstable pair: %+v", res)
	}
}

func TestCQLFCaseStudyPairsStable(t *testing.T) {
	// Table 1 states all six (KT, KE) pairs were designed for switching
	// stability; our search should certify each.
	for _, a := range plants.CaseStudy() {
		res, err := SwitchingStable(a.Plant, a.KT, a.KE)
		if err != nil || !res.Found {
			t.Errorf("%s: no CQLF found (err=%v)", a.Name, err)
		}
	}
}

func TestCommonLyapunovIdenticalModes(t *testing.T) {
	a := mat.Diag([]float64{0.5, 0.3})
	res, err := CommonLyapunov(a, a)
	if err != nil || !res.Found {
		t.Fatalf("identical stable modes must admit a CQLF: %v", err)
	}
}

func TestCommonLyapunovCommutingModes(t *testing.T) {
	// Commuting stable matrices always admit a CQLF
	// (Narendra–Balakrishnan); diagonal matrices commute.
	a1 := mat.Diag([]float64{0.9, 0.2})
	a2 := mat.Diag([]float64{0.1, 0.8})
	res, err := CommonLyapunov(a1, a2)
	if err != nil || !res.Found {
		t.Fatalf("commuting modes: %v", err)
	}
}

func TestCommonLyapunovRejectsUnstableMode(t *testing.T) {
	a1 := mat.Diag([]float64{0.5})
	a2 := mat.Diag([]float64{1.5})
	res, err := CommonLyapunov(a1, a2)
	if err == nil || res.Found {
		t.Fatalf("unstable mode accepted: %+v", res)
	}
}

func TestCommonLyapunovNoModes(t *testing.T) {
	if _, err := CommonLyapunov(); err == nil {
		t.Fatal("empty mode list accepted")
	}
}

func TestCheckCQLFRejectsNonPD(t *testing.T) {
	a := mat.Diag([]float64{0.5})
	if _, ok := CheckCQLF(mat.Diag([]float64{-1}), a); ok {
		t.Fatal("negative P accepted")
	}
}

// TestCQLFKnownCounterexample: the classic pair that is individually stable
// but admits no CQLF and is in fact divergent under some switching
// sequence; the search must not certify it.
func TestCQLFKnownCounterexample(t *testing.T) {
	// Modes with spectral radius <1 whose product has spectral radius >1.
	a1 := mat.FromRows([][]float64{{0.9, 1.5}, {0, 0.2}})
	a2 := mat.FromRows([][]float64{{0.2, 0}, {1.5, 0.9}})
	prod := mat.Mul(a1, a2)
	r, err := mat.SpectralRadius(prod)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1 {
		t.Skipf("counterexample product not divergent (r=%v); matrix choice needs updating", r)
	}
	res, _ := CommonLyapunov(a1, a2)
	if res.Found {
		t.Fatalf("certified a CQLF for a divergent switched pair (margin %v)", res.Margin)
	}
}
