// Package switching implements the paper's core offline analysis (Sec. 3):
// the bi-modal switched closed loop and the exhaustive analysis of all
// switching sequences permitted by the proposed strategy, producing for each
// application the settling times JT and JE, the dwell-time tables Tdw−(Tw)
// and Tdw+(Tw), and the maximum tolerable wait T*w.
//
// Semantics (shared with the scheduler, the co-simulator and the verifier):
// a disturbance at sample 0 puts the plant at x0 with the held input u[−1]=0.
// The application runs in mode ME (controller KE over ET communication, one
// sample input delay) for Tw samples, then in mode MT (controller KT over a
// TT slot, no delay) for Tdw samples, then in ME again until it settles.
// Settling time J is the first sample index after which |y| never exceeds
// the tolerance.
//
// Every (Tw, Tdw) pair is still decided by simulation, but only the samples
// that can change the answer are simulated (sweep.go). Trajectories that
// share a prefix share its simulation: the Tw ME-samples are common to all
// dwells at that wait, and dwell d is dwell d−1 plus one MT-sample, so each
// pair costs one MT step plus its own ME tail. The tail stops as soon as the
// augmented state [x; u_prev] enters an invariant ellipsoid of the ME closed
// loop inside which |y| ≤ tolerance — a quadratic Lyapunov level set, checked
// once per application — because from there on no sample can leave the band
// and the settling index is already known. The states visited are computed
// with the same floating-point operations in the same order as a plain
// sample-by-sample run, and the cut-off only skips samples proven to stay in
// band, so the result is exactly that of simulating every pair to the
// horizon. An ME loop with no such certificate (not Schur-stable, or too
// ill-conditioned to trust) is simply simulated to the horizon.
package switching

import (
	"errors"
	"fmt"
	"math"

	"tightcps/internal/lti"
)

// SettleTol is the settling threshold on |y|: an output has settled at J
// when |y[k]| ≤ SettleTol for every k ≥ J.
const SettleTol = 0.02

// maxDwell caps the dwell times examined at max(40, 4·J*): the useful
// dwell never exceeds the time to settle fully inside MT.
func maxDwell(jStar int) int { return max(40, 4*jStar) }

// Config parameterises the offline profile computation.
type Config struct {
	// Horizon is the simulation length in samples used to decide settling
	// (default 4000). Trajectories that have not settled within Horizon are
	// treated as never settling.
	Horizon int
	// TwGranularity coarsens the wait-time grid: tables are computed only
	// for Tw that are multiples of this value, and lookups round the actual
	// wait *up* to the next grid point (conservative). Default 1 (exact).
	TwGranularity int
	// Workers has no effect: one application's sweep takes a millisecond
	// or two and runs on the calling goroutine. The field remains so that
	// callers setting it keep compiling; parallelism is across
	// applications (core.Options.Workers).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 4000
	}
	if c.TwGranularity <= 0 {
		c.TwGranularity = 1
	}
	return c
}

// Profile is the precomputed switching profile of one application — exactly
// the data a Table 1 row reports, plus bookkeeping.
type Profile struct {
	Name  string
	JStar int // settling requirement (samples)
	R     int // minimum disturbance inter-arrival (samples)

	JT int // settling time with a dedicated TT slot (pure MT)
	JE int // settling time on ET only (pure ME); may exceed Horizon sentinel

	TwStar   int   // maximum wait for which the requirement remains attainable
	TdwMinus []int // TdwMinus[Tw]: minimum dwell to meet J ≤ J*, Tw = 0..TwStar
	TdwPlus  []int // TdwPlus[Tw]: dwell beyond which J cannot improve
	JBest    []int // JBest[Tw]: settling time achieved at dwell TdwPlus[Tw]
	JAtMin   []int // JAtMin[Tw]: settling time achieved at dwell TdwMinus[Tw]

	Granularity int // Tw grid step used (1 = exact)
}

// ErrRequirementInfeasible is returned when even a dedicated TT slot cannot
// meet the requirement (JT > J*).
var ErrRequirementInfeasible = errors.New("switching: requirement infeasible even with dedicated TT slot")

// ErrRequirementTrivial is returned when ET alone already meets the
// requirement (JE ≤ J*): the application does not need a TT slot at all.
var ErrRequirementTrivial = errors.New("switching: requirement already met by ET-only controller")

// Plant bundles what the analysis needs about one application.
type Plant struct {
	Name  string
	Sys   *lti.System
	KT    lti.Feedback // order n
	KE    lti.Feedback // order n+1 (delayed/augmented design)
	X0    []float64    // post-disturbance state
	JStar int
	R     int
}

// Simulator simulates the switched closed loop for arbitrary mode
// sequences. It is also used by the co-simulation layer. Stepping and
// reading the output allocate nothing: the matrices are flattened once at
// construction and the state is double-buffered. Each sample performs the
// same floating-point operations, in the same order, as lti.System.Step,
// lti.System.Output and lti.Feedback.U.
type Simulator struct {
	n     int
	phi   []float64 // Φ, n×n row-major
	gamma []float64 // Γ, n
	c     []float64 // C, n
	kT    []float64 // KT, n
	kE    []float64 // KE, n+1; the last gain multiplies the held input

	// z is the augmented state [x; uPrev]: the plant state and the input
	// still held/applied from the previous sample. next is the buffer the
	// next step writes.
	z, next []float64
}

// NewSimulator returns a simulator positioned at the post-disturbance state.
func NewSimulator(p Plant) *Simulator {
	n := p.Sys.Order()
	if p.KT.Order() != n || p.KE.Order() != n+1 {
		panic(lti.ErrShape)
	}
	s := &Simulator{
		n:     n,
		phi:   make([]float64, 0, n*n),
		gamma: p.Sys.Gamma.Col(0),
		c:     p.Sys.C.Row(0),
		kT:    p.KT.K.Row(0),
		kE:    p.KE.K.Row(0),
		z:     make([]float64, n+1),
		next:  make([]float64, n+1),
	}
	for i := 0; i < n; i++ {
		s.phi = append(s.phi, p.Sys.Phi.Row(i)...)
	}
	s.Reset(p.X0)
	return s
}

// Reset places the simulator at state x0 with zero held input (steady state
// immediately before the disturbance).
func (s *Simulator) Reset(x0 []float64) {
	if len(x0) != s.n {
		panic(lti.ErrShape)
	}
	copy(s.z, x0)
	s.z[s.n] = 0
}

// dot returns Σ a[j]·b[j] over len(a), accumulated left to right from zero
// exactly as mat.Matrix.MulVec does.
func dot(a, b []float64) float64 {
	s := 0.0
	for j, v := range a {
		s += v * b[j]
	}
	return s
}

// Output returns the current plant output y.
func (s *Simulator) Output() float64 { return dot(s.c, s.z) }

// advance applies input u for one sample, x ← Φ·x + Γ·u, and leaves held
// as the input in flight.
func (s *Simulator) advance(u, held float64) {
	n := s.n
	for i := 0; i < n; i++ {
		s.next[i] = dot(s.phi[i*n:(i+1)*n], s.z) + s.gamma[i]*u
	}
	s.next[n] = held
	s.z, s.next = s.next, s.z
}

// StepMT advances one sample in mode MT: u = −KT·x applied immediately.
func (s *Simulator) StepMT() {
	u := -dot(s.kT, s.z)
	s.advance(u, u)
}

// StepME advances one sample in mode ME: the held input uPrev is applied,
// and the ET controller's command −KE·[x; uPrev] becomes the next held
// input (one-sample delay, Eqs. 4–5).
func (s *Simulator) StepME() {
	s.advance(s.z[s.n], -dot(s.kE, s.z))
}

// Checkpoint is a saved Simulator state: the plant state and the held
// input. The zero value is ready to use; a checkpoint reused across saves
// allocates only on its first.
type Checkpoint struct {
	z []float64
}

// Save records the simulator's current state in cp.
func (s *Simulator) Save(cp *Checkpoint) { cp.z = append(cp.z[:0], s.z...) }

// Restore returns the simulator to a state saved from a simulator of the
// same plant order.
func (s *Simulator) Restore(cp *Checkpoint) {
	if len(cp.z) != len(s.z) {
		panic(lti.ErrShape)
	}
	copy(s.z, cp.z)
}

// Mode identifies a communication/controller mode.
type Mode uint8

// Modes of the switched system.
const (
	ME Mode = iota // event-triggered: KE, one-sample delay
	MT             // time-triggered: KT, negligible delay
)

// SimulateSequence runs the switched loop from x0 through the given mode
// sequence (one entry per sample); samples beyond the sequence stay in ME.
// It returns the output trajectory of length horizon+1.
func SimulateSequence(p Plant, seq []Mode, horizon int) []float64 {
	s := NewSimulator(p)
	y := make([]float64, horizon+1)
	for k := 0; k <= horizon; k++ {
		y[k] = s.Output()
		if k == horizon {
			break
		}
		m := ME
		if k < len(seq) {
			m = seq[k]
		}
		if m == MT {
			s.StepMT()
		} else {
			s.StepME()
		}
	}
	return y
}

// SettleAfterSwitch returns the settling time J (in samples) of the
// strategy "wait Tw samples in ME, dwell in MT, then ME forever", and
// whether it settles within the horizon.
func SettleAfterSwitch(p Plant, tw, dwell int, cfg Config) (int, bool) {
	w := newSweeper(p, cfg.withDefaults())
	w.waitTo(tw)
	w.dwellTo(dwell)
	return w.settle()
}

// Compute derives the full switching profile of an application by
// exhaustive simulation over all (Tw, Tdw) combinations allowed by the
// strategy, exactly as Sec. 3 prescribes.
func Compute(p Plant, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	if p.JStar <= 0 {
		return nil, fmt.Errorf("switching: J* must be positive, got %d", p.JStar)
	}

	prof := &Profile{Name: p.Name, JStar: p.JStar, R: p.R, Granularity: cfg.TwGranularity}

	w := newSweeper(p, cfg)

	// JT: dedicated slot = MT from the disturbance on.
	w.dwellTo(cfg.Horizon)
	jt, okT := w.settle()
	if !okT {
		return nil, fmt.Errorf("switching: %s never settles in MT within horizon %d", p.Name, cfg.Horizon)
	}
	prof.JT = jt
	// JE: ET only — the ME tail from the disturbance instant itself.
	w.waitTo(0)
	je, okE := w.settle()
	if !okE {
		je = math.MaxInt32 // ET-only loop too slow to settle in horizon (still usable if stable)
	}
	prof.JE = je

	if jt > p.JStar {
		return prof, ErrRequirementInfeasible
	}
	if je <= p.JStar {
		return prof, ErrRequirementTrivial
	}

	// Sweep every Tw until the requirement becomes unattainable. JE > J*
	// bounds the loop: a wait past the horizon is the ET-only run.
	for tw := 0; ; tw++ {
		w.waitTo(tw)
		minDwell, plusDwell, jAtMin, jBest, attainable := w.dwellRow(maxDwell(p.JStar), p.JStar)
		if !attainable {
			break
		}
		prof.TdwMinus = append(prof.TdwMinus, minDwell)
		prof.TdwPlus = append(prof.TdwPlus, plusDwell)
		prof.JAtMin = append(prof.JAtMin, jAtMin)
		prof.JBest = append(prof.JBest, jBest)
		prof.TwStar = tw
	}
	if len(prof.TdwMinus) == 0 {
		return prof, ErrRequirementInfeasible
	}
	if cfg.TwGranularity > 1 {
		return coarsen(prof, cfg.TwGranularity), nil
	}
	return prof, nil
}

// coarsen merges the exact per-Tw tables onto a grid of step g. Because
// Tdw− is not monotone in Tw, simply sampling grid points would not be safe;
// instead each grid cell stores the *widest window valid for every wait it
// covers*: max Tdw− and min Tdw+ over the cell (cell i covers the waits
// ((i−1)·g, i·g] that Lookup rounds up to it, and cell 0 covers Tw = 0).
// Cells whose merged window is empty, and cells extending past the exact
// T*w, truncate the coarse table — the memory/conservativeness trade-off
// the paper describes.
func coarsen(exact *Profile, g int) *Profile {
	c := &Profile{
		Name: exact.Name, JStar: exact.JStar, R: exact.R,
		JT: exact.JT, JE: exact.JE, Granularity: g,
	}
	for i := 0; ; i++ {
		lo := (i-1)*g + 1
		if i == 0 {
			lo = 0
		}
		hi := i * g
		if hi > exact.TwStar {
			break // cell not fully covered by the exact table
		}
		dm, dp := 0, 1<<30
		jb, jm := 0, 0
		for tw := lo; tw <= hi; tw++ {
			if exact.TdwMinus[tw] > dm {
				dm = exact.TdwMinus[tw]
				jm = exact.JAtMin[tw]
			}
			if exact.TdwPlus[tw] < dp {
				dp = exact.TdwPlus[tw]
			}
			if exact.JBest[tw] > jb {
				jb = exact.JBest[tw]
			}
		}
		if dm > dp {
			break // no single window covers the whole cell
		}
		c.TdwMinus = append(c.TdwMinus, dm)
		c.TdwPlus = append(c.TdwPlus, dp)
		c.JAtMin = append(c.JAtMin, jm)
		c.JBest = append(c.JBest, jb)
		c.TwStar = hi
	}
	return c
}

// Lookup returns (Tdw−, Tdw+) for an observed wait tw, applying the
// conservative rounding of the Tw grid (waits between grid points use the
// next grid point's dwell requirements). ok is false when tw exceeds T*w.
func (p *Profile) Lookup(tw int) (dtMinus, dtPlus int, ok bool) {
	if tw < 0 || tw > p.TwStar {
		return 0, 0, false
	}
	idx := (tw + p.Granularity - 1) / p.Granularity
	if idx >= len(p.TdwMinus) {
		return 0, 0, false
	}
	return p.TdwMinus[idx], p.TdwPlus[idx], true
}

// Clone returns a copy of the profile under a new name. The dwell tables
// are shared (they are read-only after computation), so instantiating a
// fleet of applications from one computed design is free.
func (p *Profile) Clone(name string) *Profile {
	cp := *p
	cp.Name = name
	return &cp
}

// ClampTwStar truncates the profile to tolerate waits of at most maxTw
// samples, dropping the table rows beyond it. The result is strictly more
// conservative (the application claims less patience than it has), so every
// guarantee derived from the clamped profile also holds for the original.
// Used to restore the sporadic-model invariant r > T*w when a synthetic
// application settles below tolerance during the wait itself (which lets
// the computed T*w exceed J* and overtake r), and to fit encoding caps.
func (p *Profile) ClampTwStar(maxTw int) {
	if maxTw < 0 {
		maxTw = 0
	}
	if p.TwStar <= maxTw {
		return
	}
	n := maxTw/p.Granularity + 1
	p.TwStar = (n - 1) * p.Granularity
	p.TdwMinus = p.TdwMinus[:n]
	p.TdwPlus = p.TdwPlus[:n]
	if len(p.JAtMin) >= n {
		p.JAtMin = p.JAtMin[:n]
	}
	if len(p.JBest) >= n {
		p.JBest = p.JBest[:n]
	}
}

// MaxTdwMinus returns max over Tw of Tdw−(Tw) — the tie-break key the
// paper's first-fit mapping uses (called T−*dw there).
func (p *Profile) MaxTdwMinus() int {
	m := 0
	for _, v := range p.TdwMinus {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxTdwPlus returns max over Tw of Tdw+(Tw) — an upper bound on any
// occupant's slot tenure, used to bound verifier state encodings.
func (p *Profile) MaxTdwPlus() int {
	m := 0
	for _, v := range p.TdwPlus {
		if v > m {
			m = v
		}
	}
	return m
}
