package plants

// Synthetic workload generation: seeded random control applications that
// scale the evaluation past the paper's six-application case study. Each
// archetype is a randomly drawn first-order LTI plant (open-loop stable,
// unless SyntheticOptions.UnstableFrac asks for unstable ones) with a
// pole-placed fast TT controller and a pole-placed delay-tolerant ET
// controller, a settling requirement between the two loops' capabilities,
// and a heterogeneous disturbance inter-arrival bound.
// An archetype is instantiated many times under distinct names — the fleet
// pattern (hundreds of vehicles running the same control design) that makes
// large slots both realistic and, through the verifier's symmetry
// reduction, tractable to model-check.

import (
	"fmt"
	"math"
	"math/rand"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
)

// SyntheticOptions parameterises the generator. The same options and seed
// always produce the same workload.
type SyntheticOptions struct {
	// N is the number of applications to generate.
	N int
	// Archetypes is the number of distinct control designs; instances are
	// spread round-robin across them. 0 picks max(4, N/16) — fleets of
	// ~16 instances per design.
	Archetypes int
	// UnstableFrac is the fraction of archetypes drawn with an open-loop
	// unstable plant (pole > 1). Negative means 0.25. The zero value, which
	// every command passes (experiments -synthetic, -granularity-sweep
	// and the fleet-sweep benchmark), draws none, so their fleets are all
	// stable.
	UnstableFrac float64
	// Seed drives the generator's randomness.
	Seed int64
}

// SyntheticDesign records the drawn parameters of one archetype.
type SyntheticDesign struct {
	A, B      float64 // plant x⁺ = A·x + B·u, y = x
	RhoT      float64 // closed-loop pole under the fast TT controller
	RhoE      float64 // double pole under the delayed ET controller
	JStar     int     // settling requirement (samples)
	R         int     // minimum disturbance inter-arrival (samples)
	X0        float64 // post-disturbance state
	Unstable  bool    // open-loop unstable plant
	Slack     bool    // high-patience design (large J* gap → deep slots)
	Instances int     // applications instantiated from this design
}

// SyntheticWorkload is a generated application set plus its provenance.
type SyntheticWorkload struct {
	Apps []App
	// ArchetypeOf maps an application index to its design index; instances
	// of one design share the plant, controllers, requirement and bounds,
	// so their switching profiles are identical (up to the name).
	ArchetypeOf []int
	Designs     []SyntheticDesign
}

// Synthetic generates a seeded random workload. Plants are first-order
// (the smallest order exhibiting the paper's fast/slow switching trade-off,
// keeping profile computation cheap at hundreds of applications); the TT
// controller places the closed-loop pole in [0.08, 0.30] (settling in 2–4
// samples) and the ET controller places a double pole of the delayed
// augmented loop in [0.82, 0.92] (settling in tens of samples), so every
// design needs the TT slot to meet its requirement but tolerates a bounded
// wait — exactly the regime the dimensioning flow arbitrates.
func Synthetic(opt SyntheticOptions) *SyntheticWorkload {
	if opt.N <= 0 {
		return &SyntheticWorkload{}
	}
	arch := opt.Archetypes
	if arch <= 0 {
		arch = opt.N / 16
		if arch < 4 {
			arch = 4
		}
	}
	if arch > opt.N {
		arch = opt.N
	}
	uf := opt.UnstableFrac
	if uf < 0 {
		uf = 0.25
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	w := &SyntheticWorkload{}
	for d := 0; d < arch; d++ {
		// Every sixth archetype is a slack design: deep slots (8+ fleet
		// instances) only arise from high-patience applications, and the
		// sweep wants a deterministic supply of them at every seed.
		slack := arch >= 6 && d%6 == 5
		des := drawDesign(rng, rng.Float64() < uf, slack)
		w.Designs = append(w.Designs, des)
	}
	for i := 0; i < opt.N; i++ {
		d := i % arch
		w.Designs[d].Instances++
		w.Apps = append(w.Apps, w.Designs[d].instantiate(
			fmt.Sprintf("A%02dx%02d", d, i/arch)))
		w.ArchetypeOf = append(w.ArchetypeOf, d)
	}
	return w
}

// drawDesign draws one archetype.
//
// Tight designs put the requirement J* 8–14 samples above the
// dedicated-slot settling time JT, which places the maximum tolerable wait
// T*w near that gap; their slots hold a handful of instances. Slack designs
// stretch the gap to ~22 samples over a fast-decaying plant, whose short
// dwell floor (Tdw− = 3, set by the held-input handover transient of the
// delayed ET controller) lets eight-plus instances rotate through one slot
// — the deep-slot workload the wide verifier exists for. r is drawn above
// J*; the computed T*w occasionally overtakes it (a plant can settle below
// tolerance during the wait itself), which the sweep repairs conservatively
// with Profile.ClampTwStar.
func drawDesign(rng *rand.Rand, unstable, slack bool) SyntheticDesign {
	des := SyntheticDesign{Unstable: unstable, Slack: slack}
	if slack {
		// Fast stable plant: small A keeps the ME handover kick
		// (a − ρT)·x small, so short dwells suffice at every wait.
		des.A = 0.22 + 0.06*rng.Float64()
		des.B = 0.8 + 0.7*rng.Float64()
		des.RhoT = 0.07 + 0.02*rng.Float64()
		des.RhoE = 0.875 + 0.01*rng.Float64()
		des.X0 = 1.0
		des.JStar = 24
		des.R = des.JStar + 2
		return des
	}
	if unstable {
		des.A = 1.01 + 0.11*rng.Float64()
	} else {
		des.A = 0.62 + 0.33*rng.Float64()
	}
	des.B = 0.5 + 1.5*rng.Float64()
	des.RhoT = 0.08 + 0.22*rng.Float64()
	des.RhoE = 0.82 + 0.10*rng.Float64()
	des.X0 = 0.6 + 0.8*rng.Float64()

	// JT for a scalar loop decaying at ρT from |x0|: first k with
	// |x0|·ρT^k ≤ SettleTol.
	jt := int(math.Ceil(math.Log(SettleTol/des.X0) / math.Log(des.RhoT)))
	if jt < 1 {
		jt = 1
	}
	des.JStar = jt + 8 + rng.Intn(7)
	des.R = des.JStar + 2 + rng.Intn(9)
	return des
}

// instantiate builds the named App of this design: the plant, the
// pole-placed controllers, and the requirement/disturbance parameters.
func (d SyntheticDesign) instantiate(name string) App {
	phi := mat.FromRows([][]float64{{d.A}})
	gamma := mat.ColVec([]float64{d.B})
	c := mat.RowVec([]float64{1})

	// TT mode: u = −kT·x gives x⁺ = (A − B·kT)x; place the pole at ρT.
	kT := (d.A - d.RhoT) / d.B

	// ET mode: state [x; uPrev] evolves by [[A, B], [−k1, −k2]] (one-sample
	// input delay, Eqs. 4–5). Placing a double pole at ρE:
	// trace = A − k2 = 2ρE and det = −A·k2 + B·k1 = ρE².
	k2 := d.A - 2*d.RhoE
	k1 := (d.RhoE*d.RhoE + d.A*k2) / d.B

	return App{
		Name:  name,
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{kT}),
		KE:    lti.NewFeedback([]float64{k1, k2}),
		JStar: d.JStar,
		R:     d.R,
		X0:    []float64{d.X0},
	}
}
