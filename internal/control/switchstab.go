package control

import (
	"errors"
	"math"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
	"tightcps/internal/opt"
)

// ErrNoCQLF is returned when the common-quadratic-Lyapunov-function search
// fails. The search is sufficient only: failure does not prove that no CQLF
// exists (though for switching-unstable pairs none does).
var ErrNoCQLF = errors.New("control: no common quadratic Lyapunov function found")

// SwitchedPair returns the two closed-loop matrices of the bi-modal switched
// system in the common augmented coordinates z = [x; u_prev]:
//
//	mode MT: x' = (Φ−ΓKT)x, u_prev' = −KT·x
//	mode ME: x' = Φx + Γ·u_prev, u_prev' = −KE·[x; u_prev]
//
// Both matrices are (n+1)×(n+1); a common Lyapunov function in this space
// certifies stability under arbitrary mode switching (Lin & Antsaklis [7]).
func SwitchedPair(s *lti.System, kT, kE lti.Feedback) (aT, aE *mat.Matrix) {
	n := s.Order()
	if kT.Order() != n || kE.Order() != n+1 {
		panic(lti.ErrShape)
	}
	aT = mat.New(n+1, n+1)
	aclT := lti.ClosedLoop(s, kT)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aT.Set(i, j, aclT.At(i, j))
		}
	}
	for j := 0; j < n; j++ {
		aT.Set(n, j, -kT.K.At(0, j))
	}
	aug := s.Augmented()
	aE = lti.ClosedLoop(aug, kE)
	return aT, aE
}

// CQLFResult reports the outcome of a common-Lyapunov search.
type CQLFResult struct {
	P      *mat.Matrix // the common Lyapunov matrix (nil if not found)
	Found  bool
	Margin float64 // min decrease margin: −max_i λmax(AᵢᵀPAᵢ−P), >0 when found
	Method string  // which candidate/search produced P
}

// CheckCQLF verifies that P ≻ 0 and AᵢᵀPAᵢ − P ≺ 0 for every mode matrix,
// returning the decrease margin (smallest eigenvalue gap, positive iff P is
// a valid CQLF). P is normalised internally so margins are comparable.
func CheckCQLF(p *mat.Matrix, modes ...*mat.Matrix) (float64, bool) {
	if !mat.IsPositiveDefinite(p) {
		return -1, false
	}
	pn := mat.Scale(1/p.NormFro(), p)
	margin := math.Inf(1)
	for _, a := range modes {
		d := mat.Sub(mat.Mul(mat.Mul(a.T(), pn), a), pn).Symmetrize()
		eig, err := mat.Eigenvalues(d)
		if err != nil {
			return -1, false
		}
		lmax := math.Inf(-1)
		for _, l := range eig {
			if real(l) > lmax {
				lmax = real(l)
			}
		}
		if m := -lmax; m < margin {
			margin = m
		}
	}
	return margin, margin > 0
}

// CommonLyapunov searches for a common quadratic Lyapunov function for the
// given Schur-stable mode matrices. It first tries closed-form candidates
// (individual and chained discrete Lyapunov solutions, including the
// Narendra–Balakrishnan construction that is exact for commuting modes) and
// falls back to a Nelder–Mead search over Cholesky factors, which runs until
// it holds a certified P (or, finding none, to exhaustion). Margin is
// therefore a certified positive margin, not a maximised one.
func CommonLyapunov(modes ...*mat.Matrix) (CQLFResult, error) {
	if len(modes) == 0 {
		return CQLFResult{}, errors.New("control: no modes given")
	}
	n := modes[0].Rows()
	for _, a := range modes {
		if a.Rows() != n || a.Cols() != n {
			return CQLFResult{}, mat.ErrDimension
		}
		if ok, err := mat.IsSchurStable(a); err != nil || !ok {
			return CQLFResult{Found: false}, ErrNoCQLF
		}
	}
	id := mat.Identity(n)

	var candidates []struct {
		p      *mat.Matrix
		method string
	}
	add := func(p *mat.Matrix, method string) {
		if p != nil {
			candidates = append(candidates, struct {
				p      *mat.Matrix
				method string
			}{p, method})
		}
	}
	// Individual solutions P_i: dlyap(A_i, I).
	sols := make([]*mat.Matrix, len(modes))
	for i, a := range modes {
		if p, err := Dlyap(a, id); err == nil {
			sols[i] = p
			add(p, "dlyap-single")
		}
	}
	// Sum of individual solutions.
	if sols[0] != nil {
		sum := sols[0].Clone()
		ok := true
		for _, p := range sols[1:] {
			if p == nil {
				ok = false
				break
			}
			sum = mat.Add(sum, p)
		}
		if ok {
			add(sum, "dlyap-sum")
		}
	}
	// Chained (Narendra–Balakrishnan) constructions, both orders for pairs.
	chain := func(order []int) *mat.Matrix {
		p := id.Clone()
		for _, i := range order {
			q, err := Dlyap(modes[i], p)
			if err != nil {
				return nil
			}
			p = q
		}
		return p
	}
	fwd := make([]int, len(modes))
	for i := range fwd {
		fwd[i] = i
	}
	add(chain(fwd), "chain-forward")
	rev := make([]int, len(modes))
	for i := range rev {
		rev[i] = len(modes) - 1 - i
	}
	add(chain(rev), "chain-reverse")

	best := CQLFResult{Margin: math.Inf(-1)}
	for _, c := range candidates {
		if m, ok := CheckCQLF(c.p, modes...); ok && m > best.Margin {
			best = CQLFResult{P: c.p, Found: true, Margin: m, Method: c.method}
		}
	}
	if best.Found {
		return best, nil
	}

	// Fall back: Nelder–Mead over the lower-triangular Cholesky factor of P,
	// descending on the negated decrease margin until a certified P: the
	// first vertex CheckCQLF accepts is the answer, as it is for the
	// closed-form candidates above.
	dim := n * (n + 1) / 2
	unpack := func(v []float64) *mat.Matrix {
		l := mat.New(n, n)
		k := 0
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				l.Set(i, j, v[k])
				k++
			}
		}
		// P = LLᵀ + εI keeps the candidate PD even at degenerate L.
		return mat.Add(mat.Mul(l, l.T()), mat.Scale(1e-9, id))
	}
	objective := func(v []float64) float64 {
		p := unpack(v)
		m, _ := CheckCQLF(p, modes...)
		return -m
	}
	// Start from the best closed-form candidate's Cholesky factor, or I.
	start := make([]float64, dim)
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if i == j {
				start[k] = 1
			}
			k++
		}
	}
	if sols[0] != nil {
		if l, err := mat.Cholesky(mat.Scale(1/sols[0].NormFro(), sols[0])); err == nil {
			k = 0
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					start[k] = l.At(i, j)
					k++
				}
			}
		}
	}
	res, err := opt.NelderMead(objective, start, opt.NelderMeadOptions{
		MaxIters: 4000 * dim, TolF: 1e-14, Step: 0.3,
		Stop: func(_ []float64, negMargin float64) bool { return negMargin < 0 },
	})
	if err == nil && res.F < 0 {
		p := unpack(res.X)
		if m, ok := CheckCQLF(p, modes...); ok {
			return CQLFResult{P: p, Found: true, Margin: m, Method: "nelder-mead"}, nil
		}
	}
	return CQLFResult{Found: false}, ErrNoCQLF
}

// SwitchingStable reports whether the bi-modal switched closed loop formed
// by kT and kE on plant s admits a common quadratic Lyapunov function.
func SwitchingStable(s *lti.System, kT, kE lti.Feedback) (CQLFResult, error) {
	aT, aE := SwitchedPair(s, kT, kE)
	return CommonLyapunov(aT, aE)
}
