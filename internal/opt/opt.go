// Package opt provides the derivative-free optimisation routine used by
// the controller-design layer: Nelder–Mead simplex search, sized for the
// low-dimensional (≤ ~15 parameters) problems arising in
// common-Lyapunov-function search.
package opt

import (
	"errors"
	"math"
	"sort"
)

// ErrBadArgs is returned for invalid optimisation arguments.
var ErrBadArgs = errors.New("opt: invalid arguments")

// Result is the outcome of a minimisation.
type Result struct {
	X     []float64 // best point found
	F     float64   // objective at X
	Iters int       // iterations used
}

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	MaxIters int     // maximum iterations (default 200·dim)
	TolF     float64 // stop when simplex f-spread falls below TolF (default 1e-10)
	Step     float64 // initial simplex step (default 0.5)
	// Stop, when non-nil, ends the search as soon as it accepts the best
	// vertex — for a caller that needs a point satisfying a condition, not
	// the minimiser. It is asked once per iteration, where TolF is.
	Stop func(x []float64, f float64) bool
}

// NelderMead minimises f starting from x0 using the Nelder–Mead simplex
// method with standard reflection/expansion/contraction/shrink coefficients.
func NelderMead(f func([]float64) float64, x0 []float64, o NelderMeadOptions) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, ErrBadArgs
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 200 * n
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.Step <= 0 {
		o.Step = 0.5
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	// Initial simplex.
	pts := make([][]float64, n+1)
	fs := make([]float64, n+1)
	pts[0] = append([]float64(nil), x0...)
	for i := 1; i <= n; i++ {
		p := append([]float64(nil), x0...)
		p[i-1] += o.Step
		pts[i] = p
	}
	for i := range pts {
		fs[i] = f(pts[i])
	}
	order := func() {
		idx := make([]int, n+1)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return fs[idx[a]] < fs[idx[b]] })
		np := make([][]float64, n+1)
		nf := make([]float64, n+1)
		for i, j := range idx {
			np[i], nf[i] = pts[j], fs[j]
		}
		copy(pts, np)
		copy(fs, nf)
	}
	centroid := func() []float64 {
		c := make([]float64, n)
		for i := 0; i < n; i++ { // exclude worst
			for j := 0; j < n; j++ {
				c[j] += pts[i][j]
			}
		}
		for j := range c {
			c[j] /= float64(n)
		}
		return c
	}
	combine := func(c, x []float64, t float64) []float64 {
		out := make([]float64, n)
		for j := range out {
			out[j] = c[j] + t*(x[j]-c[j])
		}
		return out
	}
	var it int
	for it = 0; it < o.MaxIters; it++ {
		order()
		if math.Abs(fs[n]-fs[0]) < o.TolF || (o.Stop != nil && o.Stop(pts[0], fs[0])) {
			break
		}
		c := centroid()
		xr := combine(c, pts[n], -alpha)
		fr := f(xr)
		switch {
		case fr < fs[0]:
			xe := combine(c, pts[n], -gamma)
			fe := f(xe)
			if fe < fr {
				pts[n], fs[n] = xe, fe
			} else {
				pts[n], fs[n] = xr, fr
			}
		case fr < fs[n-1]:
			pts[n], fs[n] = xr, fr
		default:
			xc := combine(c, pts[n], rho)
			fc := f(xc)
			if fc < fs[n] {
				pts[n], fs[n] = xc, fc
			} else {
				for i := 1; i <= n; i++ {
					pts[i] = combine(pts[0], pts[i], sigma)
					fs[i] = f(pts[i])
				}
			}
		}
	}
	order()
	return Result{X: pts[0], F: fs[0], Iters: it}, nil
}
