package mat

import "math"

// LU holds an LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	lu  *Matrix
	piv []int
}

// Factor computes the LU factorisation of a square matrix with partial
// pivoting. It returns ErrSingular when a pivot underflows to (near) zero.
func Factor(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, ErrDimension
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivot
			lu.data[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= m * lu.data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// SolveVec solves A·x = b for one right-hand side.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(ErrDimension)
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.data[i*n+j] * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.data[i*n+j] * x[j]
		}
		x[i] /= f.lu.data[i*n+i]
	}
	return x
}

// Solve solves A·X = B column by column.
func (f *LU) Solve(b *Matrix) *Matrix {
	if b.rows != f.lu.rows {
		panic(ErrDimension)
	}
	out := New(b.rows, b.cols)
	for j := 0; j < b.cols; j++ {
		col := f.SolveVec(b.Col(j))
		for i, v := range col {
			out.data[i*out.cols+j] = v
		}
	}
	return out
}

// Solve solves the square system A·X = B.
func Solve(a, b *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveVec solves the square system A·x = b.
func SolveVec(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// Inverse returns A⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive definite A. It returns ErrNotSPD otherwise.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, ErrDimension
	}
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, ErrNotSPD
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotSPD
				}
				l.data[i*n+i] = math.Sqrt(s)
			} else {
				l.data[i*n+j] = s / l.data[j*n+j]
			}
		}
	}
	return l, nil
}

// IsPositiveDefinite reports whether the symmetric part of a is positive
// definite (via Cholesky of the symmetrised matrix).
func IsPositiveDefinite(a *Matrix) bool {
	_, err := Cholesky(a.Symmetrize())
	return err == nil
}
