// Package lti models discrete-time linear time-invariant (LTI) systems of
// the form used throughout the paper:
//
//	x[k+1] = Φ·x[k] + Γ·u[k],   y[k] = C·x[k]            (Eq. 1)
//
// together with the one-sample input-delay variant used for event-triggered
// communication:
//
//	x[k+1] = Φ·x[k] + Γ·u[k−1], y[k] = C·x[k]            (Eq. 4)
//
// It provides simulation, settling-time measurement, stability tests,
// controllability/observability analysis, and continuous-to-discrete
// conversion for building new plants.
package lti

import (
	"errors"
	"fmt"

	"tightcps/internal/mat"
)

// System is a discrete-time LTI plant x[k+1] = Phi·x[k] + Gamma·u[k],
// y[k] = C·x[k], sampled with period H seconds. Single-input single-output
// in this library (Gamma is n×1, C is 1×n), matching the paper's plants.
type System struct {
	Phi   *mat.Matrix // n×n state matrix
	Gamma *mat.Matrix // n×1 input matrix
	C     *mat.Matrix // 1×n output matrix
	H     float64     // sampling period in seconds
}

// ErrShape is returned when the system matrices have inconsistent shapes.
var ErrShape = errors.New("lti: inconsistent system matrix shapes")

// NewSystem validates shapes and returns a System.
func NewSystem(phi, gamma, c *mat.Matrix, h float64) (*System, error) {
	n := phi.Rows()
	if phi.Cols() != n || gamma.Rows() != n || gamma.Cols() != 1 || c.Rows() != 1 || c.Cols() != n {
		return nil, fmt.Errorf("%w: Phi %dx%d, Gamma %dx%d, C %dx%d",
			ErrShape, phi.Rows(), phi.Cols(), gamma.Rows(), gamma.Cols(), c.Rows(), c.Cols())
	}
	if h <= 0 {
		return nil, fmt.Errorf("lti: sampling period must be positive, got %v", h)
	}
	return &System{Phi: phi, Gamma: gamma, C: c, H: h}, nil
}

// MustSystem is NewSystem that panics on error; for package-level tables of
// known-good plants.
func MustSystem(phi, gamma, c *mat.Matrix, h float64) *System {
	s, err := NewSystem(phi, gamma, c, h)
	if err != nil {
		panic(err)
	}
	return s
}

// Order returns the state dimension n.
func (s *System) Order() int { return s.Phi.Rows() }

// Output returns y = C·x for a state vector.
func (s *System) Output(x []float64) float64 {
	return s.C.MulVec(x)[0]
}

// Step advances the plant one sample: x' = Phi·x + Gamma·u.
func (s *System) Step(x []float64, u float64) []float64 {
	next := s.Phi.MulVec(x)
	for i := range next {
		next[i] += s.Gamma.At(i, 0) * u
	}
	return next
}

// ControllabilityMatrix returns [Γ ΦΓ Φ²Γ … Φⁿ⁻¹Γ].
func (s *System) ControllabilityMatrix() *mat.Matrix {
	n := s.Order()
	cols := make([]*mat.Matrix, n)
	col := s.Gamma.Clone()
	for i := 0; i < n; i++ {
		cols[i] = col
		col = mat.Mul(s.Phi, col)
	}
	return mat.HStack(cols...)
}

// Augmented returns the one-sample-delay augmented system of Eq. (4)–(5):
// state z[k] = [x[k]; u[k−1]], input is the *commanded* u[k] which reaches
// the plant one sample later:
//
//	z[k+1] = [Φ  Γ; 0  0]·z[k] + [0; 1]·u[k],  y = [C 0]·z.
func (s *System) Augmented() *System {
	n := s.Order()
	phiA := mat.New(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			phiA.Set(i, j, s.Phi.At(i, j))
		}
		phiA.Set(i, n, s.Gamma.At(i, 0))
	}
	gammaA := mat.New(n+1, 1)
	gammaA.Set(n, 0, 1)
	cA := mat.New(1, n+1)
	for j := 0; j < n; j++ {
		cA.Set(0, j, s.C.At(0, j))
	}
	return &System{Phi: phiA, Gamma: gammaA, C: cA, H: s.H}
}

// C2D discretises a continuous-time system ẋ = A·x + B·u, y = C·x with a
// zero-order hold at sampling period h:
//
//	Φ = e^{Ah},  Γ = (∫₀ʰ e^{As} ds)·B.
//
// The integral is computed exactly via the block-matrix exponential of
// [[A B],[0 0]].
func C2D(a, b, c *mat.Matrix, h float64) (*System, error) {
	n := a.Rows()
	if a.Cols() != n || b.Rows() != n || b.Cols() != 1 {
		return nil, ErrShape
	}
	blk := mat.New(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			blk.Set(i, j, a.At(i, j)*h)
		}
		blk.Set(i, n, b.At(i, 0)*h)
	}
	e, err := mat.Expm(blk)
	if err != nil {
		return nil, err
	}
	phi := mat.New(n, n)
	gamma := mat.New(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			phi.Set(i, j, e.At(i, j))
		}
		gamma.Set(i, 0, e.At(i, n))
	}
	return NewSystem(phi, gamma, c.Clone(), h)
}
