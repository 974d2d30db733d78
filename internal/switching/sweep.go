package switching

import (
	"math"

	"tightcps/internal/control"
	"tightcps/internal/mat"
)

// Safety margins of the tail certificate. The trajectory that must stay in
// band is the computed one, not the exact one, so the certificate is issued
// only where double-precision rounding is orders of magnitude below what it
// relies on; an ME loop outside these limits is still swept correctly, just
// without the cut-off. Norms are those of the balanced coordinates the
// certificate is computed in (newCertificate); the case-study loops reach
// ‖P‖F ≈ 4e3 and ‖A_E‖F·‖P‖F ≈ 3e4.
const (
	// certShrink is ε in zᵀPz ≤ (1−ε)·tol²/(C̃P⁻¹C̃ᵀ): the certified
	// ellipsoid keeps |y| a relative 5e−4 inside the tolerance, which
	// delays the cut-off by a small fraction of one sample.
	certShrink = 1e-3
	// certMaxNormP bounds ‖P‖F. Evaluating zᵀPz is off by a relative
	// ~1e−15·‖P‖F at most (P ⪰ I), so at most 1e−8, far below ε; and the
	// normalised decrease margin control.CheckCQLF verifies, 1/‖P‖F, stays
	// well above the rounding of the eigenvalue computation that checks it.
	certMaxNormP = 1e7
	// certMaxStepGain bounds ‖A_E‖F·‖P‖F. One computed step differs from
	// the exact A_E·z by at most ~1e−15·‖A_E‖F·‖z‖; in the P-norm that
	// stays below the exact step's decrease, so the computed zᵀPz still
	// never grows, while 2e−15·‖A_E‖F·‖P‖F ≤ 1. The bound keeps that
	// product at 2e−5.
	certMaxStepGain = 1e10
)

// certificate is an invariant ellipsoid {z : zᵀPz ≤ level} of the ME closed
// loop z⁺ = A_E·z over the augmented state z = [x; u_prev], inside which
// |y| ≤ tol. P solves A_EᵀPA_E − P = −I, so zᵀPz decreases along every ME
// trajectory and a state inside the ellipsoid never leaves it; and since
// |C̃z|² ≤ (C̃P⁻¹C̃ᵀ)·(zᵀPz), level = (1−ε)·tol²/(C̃P⁻¹C̃ᵀ) keeps the output in
// band on all of it. The convergence-rate abstraction of Gaukler et al.,
// used here only to stop simulating a tail whose outcome is decided.
type certificate struct {
	p     []float64 // P, (n+1)×(n+1) row-major
	level float64
}

// newCertificate builds the certificate of p's ME loop, or returns nil when
// there is none to be had: A_E not Schur-stable (no solution, or one that
// fails the Lyapunov check), or P too large to trust in floating point.
//
// The Lyapunov equation is solved in balanced coordinates z' = D·z,
// D = diag(1, …, 1, 1/σ): the held input is −KE·z and can be orders of
// magnitude larger than the state it feeds back through Γ (C6: gains of
// 10⁴, Γ of 10⁻⁵), which would make P — and the rounding it amplifies — as
// lopsided. σ is the power of two nearest √(‖KE row‖₁/‖Γ‖₁), so the scaling
// itself is exact, and componentwise rounding bounds are the same in either
// coordinates; P = D·P'·D is the form the simulator's own z is tested with.
func newCertificate(p Plant, tol float64) *certificate {
	_, aE := control.SwitchedPair(p.Sys, p.KT, p.KE)
	n := p.Sys.Order()
	gainRow, gammaCol := 0.0, 0.0
	for i := 0; i < n; i++ {
		gainRow += math.Abs(aE.At(n, i))
		gammaCol += math.Abs(aE.At(i, n))
	}
	sigma := 1.0
	if gainRow > 0 && gammaCol > 0 {
		sigma = math.Exp2(math.Round(math.Log2(gainRow/gammaCol) / 2))
	}
	for i := 0; i < n; i++ {
		aE.Set(n, i, aE.At(n, i)/sigma)
		aE.Set(i, n, aE.At(i, n)*sigma)
	}
	pm, err := control.Dlyap(aE, mat.Identity(n+1))
	if err != nil {
		return nil
	}
	if _, ok := control.CheckCQLF(pm, aE); !ok {
		return nil
	}
	if normP := pm.NormFro(); normP > certMaxNormP || aE.NormFro()*normP > certMaxStepGain {
		return nil
	}
	cAug := append(p.Sys.C.Row(0), 0) // C̃ = [C 0], the same in both coordinates
	pInvC, err := mat.SolveVec(pm, cAug)
	if err != nil {
		return nil
	}
	gain := dot(cAug, pInvC) // C̃P⁻¹C̃ᵀ
	c := &certificate{p: make([]float64, 0, (n+1)*(n+1)), level: (1 - certShrink) * tol * tol / gain}
	for i := 0; i <= n; i++ {
		c.p = append(c.p, pm.Row(i)...)
	}
	for i := 0; i <= n; i++ { // P = D·P'·D
		c.p[i*(n+1)+n] /= sigma
		c.p[n*(n+1)+i] /= sigma
	}
	return c
}

// holds reports whether the simulator's augmented state lies inside the
// certified ellipsoid.
func (c *certificate) holds(s *Simulator) bool {
	m := len(s.z)
	v := 0.0
	for i, zi := range s.z {
		v += zi * dot(c.p[i*m:(i+1)*m], s.z)
	}
	return v <= c.level
}

// sweeper is the one settling kernel behind SettleAfterSwitch, Surface,
// Compute and the tests' Validate. It holds a simulator at the end of the
// pattern "tw samples ME, then dwell samples MT" together with the last
// out-of-band sample seen on the way there, and lets the caller lengthen the
// wait or the dwell a sample at a time and ask, at any point, when the loop
// would settle if it returned to ME now. No sample past the horizon is ever
// simulated or looked at.
type sweeper struct {
	sim     *Simulator
	cert    *certificate // nil: tails run to the horizon
	horizon int

	tw, dwell int // pattern simulated so far; the simulator is at sample at()
	last      int // last sample < at() with |y| > SettleTol, −1 if none

	wait     Checkpoint // simulator at the end of the wait prefix (dwell 0)
	waitLast int        // last at that point
	tail     Checkpoint // scratch for settle
}

// newSweeper returns a sweeper at the disturbance instant (tw = dwell = 0).
// cfg must already carry its defaults.
func newSweeper(p Plant, cfg Config) *sweeper {
	w := &sweeper{
		sim:      NewSimulator(p),
		cert:     newCertificate(p, SettleTol),
		horizon:  cfg.Horizon,
		last:     -1,
		waitLast: -1,
	}
	w.sim.Save(&w.wait)
	return w
}

// at returns the sample the simulator is at.
func (w *sweeper) at() int { return min(w.tw+w.dwell, w.horizon) }

// step notes whether the current sample is out of band and advances one
// sample in the given mode; at the horizon it does nothing. The caller
// counts the step into tw or dwell.
func (w *sweeper) step(m Mode) {
	k := w.at()
	if k == w.horizon {
		return
	}
	if math.Abs(w.sim.Output()) > SettleTol {
		w.last = k
	}
	if m == MT {
		w.sim.StepMT()
	} else {
		w.sim.StepME()
	}
}

// waitTo drops any dwell and lengthens the ME wait prefix to tw samples.
// The prefix only grows: a tw at or below the current one leaves it as is.
// Waits (and dwells) beyond the horizon are all the same pattern, so they
// are counted up to the horizon only.
func (w *sweeper) waitTo(tw int) {
	if w.dwell > 0 {
		w.sim.Restore(&w.wait)
		w.dwell, w.last = 0, w.waitLast
	}
	for tw = min(tw, w.horizon); w.tw < tw; w.tw++ {
		w.step(ME)
	}
	w.sim.Save(&w.wait)
	w.waitLast = w.last
}

// dwellTo lengthens the MT dwell after the current wait to d samples. Like
// the wait it only grows; waitTo starts it over.
func (w *sweeper) dwellTo(d int) {
	for d = min(d, w.horizon); w.dwell < d; w.dwell++ {
		w.step(MT)
	}
}

// settle returns the settling time of the pattern simulated so far followed
// by ME for good, and whether that is within the horizon — the answer
// lti.SettlingIndex gives on the full horizon+1 output samples. It runs the
// ME tail from the current sample and stops at the first in-band sample whose state
// the certificate covers: every later sample is then in band too, so the
// last out-of-band sample is already known. The simulator is left where it
// was.
func (w *sweeper) settle() (int, bool) {
	w.sim.Save(&w.tail)
	last := w.last
	for k := w.at(); ; k++ {
		if math.Abs(w.sim.Output()) > SettleTol {
			last = k
		} else if w.cert != nil && w.cert.holds(w.sim) {
			break
		}
		if k == w.horizon {
			break
		}
		w.sim.StepME()
	}
	w.sim.Restore(&w.tail)
	if last == w.horizon {
		return w.horizon + 1, false
	}
	return last + 1, true
}

// dwellRow scans dwell = 1..maxDwell at the current wait. It returns the
// minimum dwell meeting J ≤ J*, the smallest dwell achieving the best
// attainable J (= Tdw+), and the settling times at those two dwells.
// attainable is false when no dwell meets the requirement (Tw > T*w).
//
// Tdw+ is the first dwell attaining the minimum achievable settling time.
// Staying in MT beyond it "will not get improved" (and, because the
// switch-back transient matters, can even be slightly worse), which is
// exactly the paper's reading — e.g. for C1 at Tw=0 it reports Tdw+=6 with J
// equal to the dedicated-slot JT.
func (w *sweeper) dwellRow(maxDwell, jStar int) (minDwell, plusDwell, jAtMin, jBest int, attainable bool) {
	for d := 1; d <= maxDwell; d++ {
		w.dwellTo(d)
		j, ok := w.settle()
		if !ok {
			j = math.MaxInt32
		}
		if !attainable && j <= jStar {
			minDwell, jAtMin, attainable = d, j, true
		}
		if d == 1 || j < jBest {
			plusDwell, jBest = d, j
		}
	}
	return minDwell, plusDwell, jAtMin, jBest, attainable
}
