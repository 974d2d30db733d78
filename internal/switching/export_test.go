package switching

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
