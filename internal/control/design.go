// Package control provides the discrete-time controller design machinery
// referenced by the paper: state-feedback pole placement (Ackermann's
// formula), discrete LQR via Riccati iteration, discrete Lyapunov equation
// solving, and a common-quadratic-Lyapunov-function (CQLF) search used to
// certify switching stability between the time-triggered controller KT and
// the event-triggered controller KE (Sec. 3, "Comments on switching
// stability").
package control

import (
	"errors"
	"fmt"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
)

// ErrUncontrollable is returned when pole placement meets a plant whose
// controllability matrix is singular.
var ErrUncontrollable = errors.New("control: plant is not controllable")

// ErrNoConvergence is returned when an iterative design fails to converge.
var ErrNoConvergence = errors.New("control: iteration did not converge")

// PlacePoles computes the SISO state-feedback gain K such that the closed
// loop Φ − Γ·K has the desired eigenvalues, using Ackermann's formula:
//
//	K = [0 … 0 1]·𝒞⁻¹·p(Φ)
//
// where 𝒞 is the controllability matrix and p the desired characteristic
// polynomial. Complex poles must appear in conjugate pairs and len(poles)
// must equal the plant order.
func PlacePoles(s *lti.System, poles []complex128) (lti.Feedback, error) {
	n := s.Order()
	if len(poles) != n {
		return lti.Feedback{}, fmt.Errorf("control: need %d poles, got %d", n, len(poles))
	}
	cm := s.ControllabilityMatrix()
	cmInv, err := mat.Inverse(cm)
	if err != nil {
		return lti.Feedback{}, ErrUncontrollable
	}
	p := mat.PolyEvalMatrix(mat.PolyFromRoots(poles), s.Phi)
	// eₙᵀ·𝒞⁻¹·p(Φ): last row of 𝒞⁻¹ times p(Φ).
	lastRow := mat.RowVec(cmInv.Row(n - 1))
	k := mat.Mul(lastRow, p)
	return lti.Feedback{K: k}, nil
}

// DLQR solves the infinite-horizon discrete LQR problem for cost
// Σ xᵀQx + uᵀRu by iterating the Riccati difference equation to a fixed
// point, and returns the optimal gain K (u = −K·x) and the solution P.
func DLQR(s *lti.System, q *mat.Matrix, r float64) (lti.Feedback, *mat.Matrix, error) {
	n := s.Order()
	if q.Rows() != n || q.Cols() != n {
		return lti.Feedback{}, nil, mat.ErrDimension
	}
	if r <= 0 {
		return lti.Feedback{}, nil, fmt.Errorf("control: R must be positive, got %v", r)
	}
	p := q.Clone()
	const maxIter = 100000
	for iter := 0; iter < maxIter; iter++ {
		// K = (R + ΓᵀPΓ)⁻¹ ΓᵀPΦ (scalar denominator in SISO).
		gtp := mat.Mul(s.Gamma.T(), p) // 1×n
		den := r + mat.Mul(gtp, s.Gamma).At(0, 0)
		k := mat.Scale(1/den, mat.Mul(gtp, s.Phi)) // 1×n
		// P' = Q + ΦᵀPΦ − ΦᵀPΓ·K
		ptp := mat.Mul(mat.Mul(s.Phi.T(), p), s.Phi)
		corr := mat.Mul(mat.Mul(mat.Mul(s.Phi.T(), p), s.Gamma), k)
		pNext := mat.Add(q, mat.Sub(ptp, corr)).Symmetrize()
		if mat.EqualApprox(pNext, p, 1e-12*(1+pNext.MaxAbs())) {
			gtp = mat.Mul(s.Gamma.T(), pNext)
			den = r + mat.Mul(gtp, s.Gamma).At(0, 0)
			k = mat.Scale(1/den, mat.Mul(gtp, s.Phi))
			return lti.Feedback{K: k}, pNext, nil
		}
		p = pNext
	}
	return lti.Feedback{}, nil, ErrNoConvergence
}

// Dlyap solves the discrete Lyapunov equation AᵀPA − P + Q = 0 for P via
// Kronecker vectorisation: (I − Aᵀ⊗Aᵀ)·vec(P) = vec(Q). A must be Schur
// stable for a (unique, PD for PD Q) solution to exist.
func Dlyap(a, q *mat.Matrix) (*mat.Matrix, error) {
	n := a.Rows()
	if a.Cols() != n || q.Rows() != n || q.Cols() != n {
		return nil, mat.ErrDimension
	}
	at := a.T()
	m := mat.Sub(mat.Identity(n*n), mat.Kron(at, at))
	vp, err := mat.SolveVec(m, mat.Vec(q))
	if err != nil {
		return nil, fmt.Errorf("control: dlyap: %w", err)
	}
	return mat.Unvec(vp, n, n).Symmetrize(), nil
}
