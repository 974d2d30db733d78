package lti

import (
	"math"

	"tightcps/internal/mat"
)

// Trajectory is the result of a closed-loop simulation.
type Trajectory struct {
	H  float64   // sampling period (seconds)
	Y  []float64 // output sequence y[0..K]
	U  []float64 // applied input sequence u[0..K]
	K  int       // number of simulated steps
	X0 []float64 // initial state
}

// SettlingIndex returns the smallest index k such that |y[j]| ≤ tol for all
// j ≥ k, scanning from the end. ok is false when even the last sample
// violates the tolerance.
func SettlingIndex(y []float64, tol float64) (int, bool) {
	if len(y) == 0 {
		return 0, false
	}
	k := len(y)
	for i := len(y) - 1; i >= 0; i-- {
		if math.Abs(y[i]) > tol {
			break
		}
		k = i
	}
	if k == len(y) {
		return k, false
	}
	return k, true
}

// Feedback is a state-feedback law u = −K·x (or −K·z for augmented states).
type Feedback struct {
	K *mat.Matrix // 1×n gain
}

// NewFeedback wraps a gain row vector.
func NewFeedback(k []float64) Feedback {
	return Feedback{K: mat.RowVec(k)}
}

// U computes the control input u = −K·x.
func (f Feedback) U(x []float64) float64 {
	return -f.K.MulVec(x)[0]
}

// Order returns the gain's state dimension.
func (f Feedback) Order() int { return f.K.Cols() }

// ClosedLoop returns Φ − Γ·K for a plant and a gain of matching order.
func ClosedLoop(s *System, f Feedback) *mat.Matrix {
	if f.Order() != s.Order() {
		panic(ErrShape)
	}
	return mat.Sub(s.Phi, mat.Mul(s.Gamma, f.K))
}

// SimulateFeedback simulates the plant under instantaneous state feedback
// (mode MT: u[k] = −K·x[k] applied at t[k]) from x0 for steps samples.
func SimulateFeedback(s *System, f Feedback, x0 []float64, steps int) *Trajectory {
	x := append([]float64(nil), x0...)
	y := make([]float64, steps+1)
	u := make([]float64, steps+1)
	for k := 0; k <= steps; k++ {
		y[k] = s.Output(x)
		u[k] = f.U(x)
		if k < steps {
			x = s.Step(x, u[k])
		}
	}
	return &Trajectory{H: s.H, Y: y, U: u, K: steps, X0: append([]float64(nil), x0...)}
}

// SimulateDelayedFeedback simulates the plant in mode ME (Eq. 4–5): the
// input applied at t[k] is the command computed at t[k−1]; the controller
// computes u[k] = −K·[x[k]; u[k−1]] with a gain of order n+1. uPrev0 is the
// input still in flight at k=0 (0 when starting from steady state).
func SimulateDelayedFeedback(s *System, f Feedback, x0 []float64, uPrev0 float64, steps int) *Trajectory {
	if f.Order() != s.Order()+1 {
		panic(ErrShape)
	}
	x := append([]float64(nil), x0...)
	uPrev := uPrev0
	y := make([]float64, steps+1)
	u := make([]float64, steps+1)
	z := make([]float64, s.Order()+1)
	for k := 0; k <= steps; k++ {
		y[k] = s.Output(x)
		u[k] = uPrev // applied input this sample
		copy(z, x)
		z[s.Order()] = uPrev
		cmd := f.U(z)
		if k < steps {
			x = s.Step(x, uPrev)
			uPrev = cmd
		}
	}
	return &Trajectory{H: s.H, Y: y, U: u, K: steps, X0: append([]float64(nil), x0...)}
}
