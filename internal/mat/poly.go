package mat

import "math"

// PolyFromRoots expands ∏(z − rᵢ) into real monic polynomial coefficients
// c[0] + c[1]z + … + c[n−1]zⁿ⁻¹ + zⁿ, returned as c (length n, excluding the
// leading 1). Complex roots must come in conjugate pairs; the imaginary
// residue of the expansion is discarded (it is ~machine epsilon for true
// conjugate pairs).
func PolyFromRoots(roots []complex128) []float64 {
	// coeffs of the monic polynomial, degree grows as we multiply factors.
	c := []complex128{1}
	for _, r := range roots {
		next := make([]complex128, len(c)+1)
		for i, v := range c {
			next[i+1] += v
			next[i] -= r * v
		}
		c = next
	}
	// c[i] is the coefficient of z^i with c[n] = 1.
	out := make([]float64, len(roots))
	for i := 0; i < len(roots); i++ {
		out[i] = real(c[i])
	}
	return out
}

// PolyEvalMatrix evaluates the monic polynomial with low-order coefficients
// c (as produced by PolyFromRoots) at the square matrix A:
//
//	P(A) = Aⁿ + c[n−1]Aⁿ⁻¹ + … + c[1]A + c[0]I.
func PolyEvalMatrix(c []float64, a *Matrix) *Matrix {
	n := a.rows
	// Horner: P = ((A + c[n-1] I) A + c[n-2] I) A + ...
	p := Identity(n)
	for i := len(c) - 1; i >= 0; i-- {
		p = Mul(p, a)
		for d := 0; d < n; d++ {
			p.data[d*n+d] += c[i]
		}
	}
	return p
}

// Expm returns the matrix exponential of a via 6th-order Padé approximation
// with scaling and squaring.
func Expm(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		panic(ErrDimension)
	}
	n := a.rows
	norm := a.NormInf()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	x := Scale(1/math.Pow(2, float64(s)), a)
	// Padé (6,6): coefficients c_k = c_{k-1}·(p−k+1)/(k·(2p−k+1)).
	const p = 6
	c := 1.0
	num := Identity(n)
	den := Identity(n)
	pow := Identity(n)
	for k := 1; k <= p; k++ {
		c = c * float64(p-k+1) / float64(k*(2*p-k+1))
		pow = Mul(pow, x)
		term := Scale(c, pow)
		num = Add(num, term)
		if k%2 == 0 {
			den = Add(den, term)
		} else {
			den = Sub(den, term)
		}
	}
	e, err := Solve(den, num)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s; i++ {
		e = Mul(e, e)
	}
	return e, nil
}
