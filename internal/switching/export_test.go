package switching

import "fmt"

// Hooks for the external test package (which may import plants; this
// package's own tests cannot, plants imports switching).

// Coarsen is coarsen, so the brute-force oracle can put its exact table on
// the same grid Compute does.
var Coarsen = coarsen

// WithDefaults is Config.withDefaults.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// MaxDwell is maxDwell: the longest dwell Compute examines at J*.
var MaxDwell = maxDwell

// TailCertificate returns the ME-tail certificate of p at tolerance tol: P
// row-major over z = [x; u_prev] and the level of the certified ellipsoid.
// ok is false when the ME loop has no certificate.
func TailCertificate(p Plant, tol float64) (pm []float64, level float64, ok bool) {
	c := newCertificate(p, tol)
	if c == nil {
		return nil, 0, false
	}
	return c.p, c.level, true
}

// SetAugmented places the simulator at the augmented state z = [x; u_prev].
func (s *Simulator) SetAugmented(z []float64) { copy(s.z, z) }

// State returns a copy of the current plant state.
func (s *Simulator) State() []float64 { return append([]float64(nil), s.z[:s.n]...) }

// Validate, the sweep tests' oracle, cross-checks internal consistency of
// a profile: table lengths, Tdw− ≤ Tdw+, and that every dwell in
// [Tdw−, Tdw+] still meets the requirement (the scheduler may preempt
// anywhere in that window, so the whole window must be safe). It
// re-simulates every dwell in every window.
func (p *Profile) Validate(pl Plant, cfg Config) error {
	want := p.TwStar/p.Granularity + 1
	if len(p.TdwMinus) != want || len(p.TdwPlus) != want {
		return fmt.Errorf("switching: table length %d/%d, want %d", len(p.TdwMinus), len(p.TdwPlus), want)
	}
	w := newSweeper(pl, cfg.withDefaults())
	for i := range p.TdwMinus {
		if p.TdwMinus[i] > p.TdwPlus[i] {
			return fmt.Errorf("switching: Tdw−[%d]=%d > Tdw+[%d]=%d", i, p.TdwMinus[i], i, p.TdwPlus[i])
		}
		tw := i * p.Granularity
		w.waitTo(tw)
		for d := p.TdwMinus[i]; d <= p.TdwPlus[i]; d++ {
			w.dwellTo(d)
			j, ok := w.settle()
			if !ok || j > p.JStar {
				return fmt.Errorf("switching: dwell %d in window [%d,%d] at Tw=%d violates J*: J=%d",
					d, p.TdwMinus[i], p.TdwPlus[i], tw, j)
			}
		}
	}
	return nil
}
