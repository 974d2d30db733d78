package switching_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
	"tightcps/internal/plants"
	. "tightcps/internal/switching"
)

// The oracle: one full-horizon simulation per (Tw, Tdw) pair through the
// generic mode-sequence runner, settling read off the whole output vector.
// It shares no prefix, saves no state and never stops early.

func oracleSettle(pl Plant, tw, d int, cfg Config) (int, bool) {
	seq := make([]Mode, tw+d)
	for i := tw; i < tw+d; i++ {
		seq[i] = MT
	}
	return lti.SettlingIndex(SimulateSequence(pl, seq, cfg.Horizon), cfg.Tol)
}

var errOracleMTNeverSettles = errors.New("never settles in MT")

// oracleProfile builds the Table 1 row of pl by brute force over the oracle.
func oracleProfile(pl Plant, cfg Config) (*Profile, error) {
	cfg = cfg.WithDefaults(pl.JStar)
	prof := &Profile{Name: pl.Name, JStar: pl.JStar, R: pl.R, Granularity: cfg.TwGranularity}
	jt, ok := oracleSettle(pl, 0, cfg.Horizon, cfg)
	if !ok {
		return nil, errOracleMTNeverSettles
	}
	prof.JT = jt
	prof.JE, ok = oracleSettle(pl, cfg.Horizon, 0, cfg)
	if !ok {
		prof.JE = math.MaxInt32
	}
	if prof.JT > pl.JStar {
		return prof, ErrRequirementInfeasible
	}
	if prof.JE <= pl.JStar {
		return prof, ErrRequirementTrivial
	}
	for tw := 0; ; tw++ {
		js := make([]int, cfg.MaxDwell+1)
		minDwell := -1
		for d := 1; d <= cfg.MaxDwell; d++ {
			j, ok := oracleSettle(pl, tw, d, cfg)
			if !ok {
				j = math.MaxInt32
			}
			js[d] = j
			if minDwell < 0 && j <= pl.JStar {
				minDwell = d
			}
		}
		if minDwell < 0 {
			break
		}
		plus := 1
		for d := 2; d <= cfg.MaxDwell; d++ {
			if js[d] < js[plus] {
				plus = d
			}
		}
		prof.TdwMinus = append(prof.TdwMinus, minDwell)
		prof.TdwPlus = append(prof.TdwPlus, plus)
		prof.JAtMin = append(prof.JAtMin, js[minDwell])
		prof.JBest = append(prof.JBest, js[plus])
		prof.TwStar = tw
	}
	if len(prof.TdwMinus) == 0 {
		return prof, ErrRequirementInfeasible
	}
	if cfg.TwGranularity > 1 {
		return Coarsen(prof, cfg.TwGranularity), nil
	}
	return prof, nil
}

// integratorHold is the motivational plant with KE = 0: the ME loop is the
// open-loop plant, whose integrator puts an eigenvalue on the unit circle, so
// A_E is not Schur-stable and no tail certificate exists. ET alone never
// settles, yet a long enough MT dwell parks the motor inside the band and
// the uncontrolled tail stays there — a real dwell table computed entirely
// on the fall-back.
func integratorHold() Plant {
	return Plant{Name: "hold", Sys: plants.Motivational(), KT: plants.MotivationalKT,
		KE: lti.NewFeedback([]float64{0, 0, 0, 0}), X0: plants.MotivationalX0, JStar: 18, R: 25}
}

func motivationalUnstablePair() Plant {
	return Plant{Name: "KuE", Sys: plants.Motivational(), KT: plants.MotivationalKT,
		KE: plants.MotivationalKEUnstable, X0: plants.MotivationalX0, JStar: 18, R: 25}
}

type sweepCase struct {
	name string
	pl   Plant
	cfg  Config
}

func sweepCases() []sweepCase {
	var cs []sweepCase
	for _, a := range plants.CaseStudy() {
		pl := plantOf(a)
		cs = append(cs,
			sweepCase{a.Name, pl, Config{}},
			sweepCase{a.Name + "/grid3", pl, Config{TwGranularity: 3}},
			// Horizons below Tw+Tdw and below JE: prefixes run past the
			// horizon and the never-settles paths are taken.
			sweepCase{a.Name + "/h60", pl, Config{Horizon: 60}},
			sweepCase{a.Name + "/h30", pl, Config{Horizon: 30}},
			sweepCase{a.Name + "/h5", pl, Config{Horizon: 5}},
		)
	}
	for seed := int64(1); seed <= 5; seed++ {
		w := plants.Synthetic(plants.SyntheticOptions{N: 100, Seed: seed})
		seen := map[int]bool{}
		for i, d := range w.ArchetypeOf {
			if !seen[d] {
				seen[d] = true
				cs = append(cs, sweepCase{fmt.Sprintf("synthetic/seed%d/%d", seed, d),
					plants.SwitchingPlant(w.Apps[i]), Config{Horizon: 800}})
			}
		}
	}
	cs = append(cs,
		sweepCase{"KuE", motivationalUnstablePair(), Config{}},
		sweepCase{"hold", integratorHold(), Config{}},
		sweepCase{"hold/h60", integratorHold(), Config{Horizon: 60}},
	)
	return cs
}

// TestSweepMatchesFullHorizonOracle: the shared-prefix, certified-cut-off
// kernel returns exactly what simulating every pair to the horizon returns —
// profile for profile (tables, scalars and errors) through Compute, and pair
// for pair through SettleAfterSwitch and Surface, for every Tw up to T*w+1
// and every dwell up to MaxDwell.
func TestSweepMatchesFullHorizonOracle(t *testing.T) {
	for _, c := range sweepCases() {
		t.Run(c.name, func(t *testing.T) {
			want, wantErr := oracleProfile(c.pl, c.cfg)
			got, gotErr := Compute(c.pl, c.cfg)
			if wantErr == errOracleMTNeverSettles {
				if gotErr == nil || !strings.Contains(gotErr.Error(), "never settles in MT") || got != nil {
					t.Fatalf("Compute = %+v, %v; the oracle never settles in MT", got, gotErr)
				}
				return
			}
			if gotErr != wantErr {
				t.Fatalf("Compute error %v, oracle %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Compute differs from the brute-force table:\n got %+v\nwant %+v", got, want)
			}
			if gotErr != nil || c.cfg.TwGranularity > 1 {
				return
			}
			cfg := c.cfg.WithDefaults(c.pl.JStar)
			twMax := got.TwStar + 1
			surf := Surface(c.pl, twMax, cfg.MaxDwell, c.cfg)
			for tw := 0; tw <= twMax; tw++ {
				for d := 0; d <= cfg.MaxDwell; d++ {
					wj, wok := oracleSettle(c.pl, tw, d, cfg)
					if j, ok := SettleAfterSwitch(c.pl, tw, d, c.cfg); j != wj || ok != wok {
						t.Fatalf("SettleAfterSwitch(Tw=%d, Tdw=%d) = %d,%v; oracle %d,%v", tw, d, j, ok, wj, wok)
					}
					pt := surf[tw*(cfg.MaxDwell+1)+d]
					if !wok {
						wj = math.MaxInt32
					}
					if pt.Tw != tw || pt.Tdw != d || pt.J != wj {
						t.Fatalf("Surface point %+v; oracle J=%d at Tw=%d, Tdw=%d", pt, wj, tw, d)
					}
				}
			}
			if err := got.Validate(c.pl, c.cfg); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestTailCertificatePresence: every case-study loop (and the motivational
// KuE loop, which is stable on its own and only fails to share a Lyapunov
// function with KT) has a tail certificate — without one the sweep is
// correct but slow — and a non-Schur ME loop has none.
func TestTailCertificatePresence(t *testing.T) {
	for _, a := range plants.CaseStudy() {
		if _, _, ok := TailCertificate(plantOf(a), 0.02); !ok {
			t.Errorf("%s: no tail certificate", a.Name)
		}
	}
	if _, _, ok := TailCertificate(motivationalUnstablePair(), 0.02); !ok {
		t.Errorf("KuE: no tail certificate")
	}
	if _, _, ok := TailCertificate(integratorHold(), 0.02); ok {
		t.Errorf("a certificate was issued for a non-Schur ME loop")
	}
	// Open-loop unstable plant, ME gain zero: spectral radius above one.
	sys := lti.MustSystem(mat.FromRows([][]float64{{1.05}}), mat.ColVec([]float64{1}), mat.RowVec([]float64{1}), plants.H)
	diverging := Plant{Name: "diverging", Sys: sys, KT: lti.NewFeedback([]float64{1.05}),
		KE: lti.NewFeedback([]float64{0, 0}), X0: []float64{1}, JStar: 5, R: 10}
	if _, _, ok := TailCertificate(diverging, 0.02); ok {
		t.Errorf("a certificate was issued for a diverging ME loop")
	}
}

// TestTailCertificateSound: from any state on the boundary of the certified
// ellipsoid, 4000 ME samples all stay inside the tolerance band — the claim
// the sweep's cut-off rests on. The worst-case direction P⁻¹C̃ᵀ starts at
// |y| = tol·√(1−ε), so the bound is tight, not vacuous.
func TestTailCertificateSound(t *testing.T) {
	const tol = 0.02
	rng := rand.New(rand.NewSource(1))
	for _, a := range plants.CaseStudy() {
		pl := plantOf(a)
		pFlat, level, ok := TailCertificate(pl, tol)
		if !ok {
			t.Fatalf("%s: no certificate", a.Name)
		}
		m := pl.Sys.Order() + 1
		pm := mat.FromSlice(m, m, pFlat)
		l, err := mat.Cholesky(pm)
		if err != nil {
			t.Fatalf("%s: P not positive definite: %v", a.Name, err)
		}
		lt := l.T()
		// z = √level·L⁻ᵀu has zᵀPz = level for every unit vector u.
		onBoundary := func(u []float64) []float64 {
			norm := 0.0
			for _, v := range u {
				norm += v * v
			}
			z, err := mat.SolveVec(lt, u)
			if err != nil {
				t.Fatal(err)
			}
			for i := range z {
				z[i] *= math.Sqrt(level / norm)
			}
			return z
		}
		cAug := append(pl.Sys.C.Row(0), 0)
		worst := onBoundary(lt.MulVec(mustSolve(t, pm, cAug))) // u ∝ Lᵀ·P⁻¹C̃ᵀ ⇒ z ∝ P⁻¹C̃ᵀ
		s := NewSimulator(pl)
		s.SetAugmented(worst)
		if y := math.Abs(s.Output()); y > tol || y < tol*(1-1e-3) {
			t.Errorf("%s: worst-case boundary output %g, want just inside tol=%g", a.Name, y, tol)
		}
		samples := [][]float64{worst}
		for i := 0; i < 200; i++ {
			u := make([]float64, m)
			for j := range u {
				u[j] = rng.NormFloat64()
			}
			samples = append(samples, onBoundary(u))
		}
		for _, z := range samples {
			s.SetAugmented(z)
			for k := 0; k <= 4000; k++ {
				if y := math.Abs(s.Output()); y > tol {
					t.Fatalf("%s: |y|=%g > tol at sample %d from boundary state %v", a.Name, y, k, z)
				}
				s.StepME()
			}
		}
	}
}

func mustSolve(t *testing.T, a *mat.Matrix, b []float64) []float64 {
	t.Helper()
	x, err := mat.SolveVec(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// ltiLoop is the switched loop written with lti.System.Step/Output and
// lti.Feedback.U — the allocating form the Simulator used to be.
type ltiLoop struct {
	pl    Plant
	x     []float64
	uPrev float64
}

func (r *ltiLoop) step(m Mode) {
	if m == MT {
		u := r.pl.KT.U(r.x)
		r.x, r.uPrev = r.pl.Sys.Step(r.x, u), u
		return
	}
	cmd := r.pl.KE.U(append(append([]float64(nil), r.x...), r.uPrev))
	r.x, r.uPrev = r.pl.Sys.Step(r.x, r.uPrev), cmd
}

// TestSimulatorBitIdenticalToLTIStepping: the flattened, in-place simulator
// reproduces the lti-helper loop to the last bit over an arbitrary mode
// sequence, and a checkpoint brings back exactly the state and held input it
// saved.
func TestSimulatorBitIdenticalToLTIStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range plants.CaseStudy() {
		pl := plantOf(a)
		s := NewSimulator(pl)
		ref := &ltiLoop{pl: pl, x: append([]float64(nil), pl.X0...)}
		var cp Checkpoint
		var saved ltiLoop
		lockstep := func(from, to int) {
			t.Helper()
			for k := from; k < to; k++ {
				if y := pl.Sys.Output(ref.x); s.Output() != y || !reflect.DeepEqual(s.State(), ref.x) {
					t.Fatalf("%s: sample %d: y=%v x=%v, reference y=%v x=%v", a.Name, k, s.Output(), s.State(), y, ref.x)
				}
				m := Mode(rng.Intn(2))
				ref.step(m)
				if m == MT {
					s.StepMT()
				} else {
					s.StepME()
				}
			}
		}
		lockstep(0, 100)
		s.Save(&cp)
		saved = *ref
		lockstep(100, 300)
		s.Restore(&cp)
		*ref = saved
		lockstep(100, 300)
	}
}

// TestSimulatorAllocFree: stepping and reading the output never allocate,
// nor does a checkpoint once it has been used.
func TestSimulatorAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewSimulator(plantOf(plants.C1()))
	var cp Checkpoint
	s.Save(&cp)
	var sink float64
	for name, fn := range map[string]func(){
		"StepME":       s.StepME,
		"StepMT":       s.StepMT,
		"Output":       func() { sink += s.Output() },
		"Save/Restore": func() { s.Save(&cp); s.Restore(&cp) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	_ = sink
}

// TestComputeAllocBounded: a whole profile costs set-up allocations only —
// the simulator, the certificate's small dense solves, the result tables —
// and none per simulated sample (the sweep visits ~10⁵ of them for C1).
func TestComputeAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	pl := plantOf(plants.C1())
	n := testing.AllocsPerRun(5, func() {
		if _, err := Compute(pl, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > computeAllocCeiling {
		t.Errorf("Compute(C1): %v allocs/op, ceiling %d", n, computeAllocCeiling)
	}
}

const computeAllocCeiling = 200
