package lti

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tightcps/internal/mat"
)

// doubleIntegrator returns the exact ZOH discretisation of ẍ = u.
func doubleIntegrator(h float64) *System {
	phi := mat.FromRows([][]float64{{1, h}, {0, 1}})
	gamma := mat.FromRows([][]float64{{h * h / 2}, {h}})
	c := mat.RowVec([]float64{1, 0})
	return MustSystem(phi, gamma, c, h)
}

func TestNewSystemValidation(t *testing.T) {
	phi := mat.Identity(2)
	gamma := mat.New(2, 1)
	c := mat.New(1, 2)
	if _, err := NewSystem(phi, gamma, c, 0.02); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	if _, err := NewSystem(phi, mat.New(3, 1), c, 0.02); err == nil {
		t.Fatalf("bad Gamma accepted")
	}
	if _, err := NewSystem(phi, gamma, mat.New(1, 3), 0.02); err == nil {
		t.Fatalf("bad C accepted")
	}
	if _, err := NewSystem(phi, gamma, c, 0); err == nil {
		t.Fatalf("zero sampling period accepted")
	}
}

func TestStepAndOutput(t *testing.T) {
	s := doubleIntegrator(0.1)
	x := []float64{1, 2}
	nx := s.Step(x, 3)
	// x1' = 1 + 0.1*2 + 0.005*3 = 1.215; x2' = 2 + 0.1*3 = 2.3
	if math.Abs(nx[0]-1.215) > 1e-12 || math.Abs(nx[1]-2.3) > 1e-12 {
		t.Fatalf("Step = %v", nx)
	}
	if s.Output(x) != 1 {
		t.Fatalf("Output = %v", s.Output(x))
	}
}

func TestControllabilityObservability(t *testing.T) {
	// A single-input system is controllable iff its square controllability
	// matrix is invertible; pole placement takes that inverse.
	s := doubleIntegrator(0.1)
	if _, err := mat.Inverse(s.ControllabilityMatrix()); err != nil {
		t.Fatalf("double integrator should be controllable: %v", err)
	}
	// Uncontrollable: input drives nothing.
	s3 := MustSystem(s.Phi, mat.ColVec([]float64{0, 0}), s.C, 0.1)
	if _, err := mat.Inverse(s3.ControllabilityMatrix()); err == nil {
		t.Fatalf("zero-input system reported controllable")
	}
}

func TestAugmentedShapeAndDynamics(t *testing.T) {
	s := doubleIntegrator(0.1)
	a := s.Augmented()
	if a.Order() != 3 {
		t.Fatalf("augmented order = %d", a.Order())
	}
	// Simulating the augmented plant with z0=[x0;u−1] must track the delayed
	// original: x[k+1] = Φx[k] + Γu[k−1].
	x := []float64{1, -1}
	uPrev := 0.7
	z := []float64{1, -1, 0.7}
	uCmd := -0.3
	zNext := a.Step(z, uCmd)
	xNext := s.Step(x, uPrev)
	for i := 0; i < 2; i++ {
		if math.Abs(zNext[i]-xNext[i]) > 1e-12 {
			t.Fatalf("augmented dynamics mismatch at %d: %v vs %v", i, zNext[i], xNext[i])
		}
	}
	if math.Abs(zNext[2]-uCmd) > 1e-12 {
		t.Fatalf("augmented input hold = %v, want %v", zNext[2], uCmd)
	}
	if a.Output(z) != s.Output(x) {
		t.Fatalf("augmented output mismatch")
	}
}

func TestC2DDoubleIntegrator(t *testing.T) {
	// Continuous double integrator A=[[0,1],[0,0]], B=[0;1] has an exact ZOH
	// discretisation Φ=[[1,h],[0,1]], Γ=[h²/2; h].
	a := mat.FromRows([][]float64{{0, 1}, {0, 0}})
	b := mat.ColVec([]float64{0, 1})
	c := mat.RowVec([]float64{1, 0})
	h := 0.05
	d, err := C2D(a, b, c, h)
	if err != nil {
		t.Fatal(err)
	}
	want := doubleIntegrator(h)
	if !mat.EqualApprox(d.Phi, want.Phi, 1e-10) {
		t.Fatalf("C2D Phi wrong:\n%v", d.Phi)
	}
	if !mat.EqualApprox(d.Gamma, want.Gamma, 1e-10) {
		t.Fatalf("C2D Gamma wrong:\n%v", d.Gamma)
	}
}

func TestC2DFirstOrderLag(t *testing.T) {
	// ẋ = −a·x + u ⇒ Φ = e^{−ah}, Γ = (1−e^{−ah})/a.
	al := 3.0
	h := 0.02
	d, err := C2D(mat.FromRows([][]float64{{-al}}), mat.ColVec([]float64{1}), mat.RowVec([]float64{1}), h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Phi.At(0, 0)-math.Exp(-al*h)) > 1e-12 {
		t.Fatalf("Phi = %v", d.Phi.At(0, 0))
	}
	if math.Abs(d.Gamma.At(0, 0)-(1-math.Exp(-al*h))/al) > 1e-12 {
		t.Fatalf("Gamma = %v", d.Gamma.At(0, 0))
	}
}

func TestSettlingIndex(t *testing.T) {
	cases := []struct {
		name string
		y    []float64
		tol  float64
		want int
		ok   bool
	}{
		{"settles mid", []float64{1, 0.5, 0.01, 0.005, 0.001}, 0.02, 2, true},
		{"never settles", []float64{1, 0.5, 0.3}, 0.02, 3, false},
		{"settled from start", []float64{0.01, 0.005}, 0.02, 0, true},
		{"re-excursion counts", []float64{1, 0.01, 0.5, 0.01, 0.001}, 0.02, 3, true},
		{"boundary is inside", []float64{1, 0.02}, 0.02, 1, true},
		{"empty", nil, 0.02, 0, false},
	}
	for _, tc := range cases {
		got, ok := SettlingIndex(tc.y, tc.tol)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: SettlingIndex = (%d,%v), want (%d,%v)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSimulateFeedbackDeadbeat(t *testing.T) {
	// For the double integrator, the deadbeat gain drives the state to zero
	// in exactly 2 samples. Deadbeat K places both poles at 0:
	// K = [1/h², 3/(2h)] (classical result).
	h := 0.1
	s := doubleIntegrator(h)
	k := NewFeedback([]float64{1 / (h * h), 3 / (2 * h)})
	acl := ClosedLoop(s, k)
	r, err := mat.SpectralRadius(acl)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-8 {
		t.Fatalf("deadbeat closed loop spectral radius = %v", r)
	}
	tr := SimulateFeedback(s, k, []float64{1, 0}, 10)
	for k := 2; k <= 10; k++ {
		if math.Abs(tr.Y[k]) > 1e-9 {
			t.Fatalf("deadbeat output not zero at k=%d: %v", k, tr.Y[k])
		}
	}
	if set, ok := SettlingIndex(tr.Y, 1e-6); !ok || set > 2 {
		t.Fatalf("deadbeat settling = %d (ok=%v), want ≤2", set, ok)
	}
}

func TestSimulateDelayedFeedbackMatchesAugmented(t *testing.T) {
	// SimulateDelayedFeedback must equal simulating the augmented plant with
	// instantaneous feedback.
	s := doubleIntegrator(0.1)
	kE := NewFeedback([]float64{2.0, 1.5, 0.3})
	x0 := []float64{1, 0}
	steps := 40
	trD := SimulateDelayedFeedback(s, kE, x0, 0, steps)
	aug := s.Augmented()
	trA := SimulateFeedback(aug, kE, []float64{1, 0, 0}, steps)
	for k := 0; k <= steps; k++ {
		if math.Abs(trD.Y[k]-trA.Y[k]) > 1e-9 {
			t.Fatalf("delayed vs augmented mismatch at k=%d: %v vs %v", k, trD.Y[k], trA.Y[k])
		}
	}
}

// Property: for any stable diagonal closed loop, the trajectory is
// non-increasing in |y| and always settles.
func TestStableDecayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambda := 0.98 * (2*r.Float64() - 1) // in (−0.98, 0.98)
		s := MustSystem(mat.Diag([]float64{lambda}), mat.ColVec([]float64{1}), mat.RowVec([]float64{1}), 0.02)
		tr := SimulateFeedback(s, NewFeedback([]float64{0}), []float64{1}, 800)
		for k := 1; k < len(tr.Y); k++ {
			if math.Abs(tr.Y[k]) > math.Abs(tr.Y[k-1]) {
				return false
			}
		}
		_, ok := SettlingIndex(tr.Y, 0.02)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
