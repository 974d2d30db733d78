// Package mat provides the dense linear algebra needed by the control,
// switching and verification layers: basic matrix arithmetic, LU-based
// solving, Cholesky factorisation, Hessenberg reduction with a shifted-QR
// eigenvalue iteration, matrix exponentials and Kronecker products.
//
// The package is deliberately small and allocation-honest: matrices are
// row-major []float64 slices, all dimensions are checked, and every routine
// that can fail numerically returns an error instead of panicking. It is
// tuned for the small (n ≤ 10) systems that appear in control co-design, not
// for large-scale numerical work.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorisation meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: singular matrix")

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// New returns a zero-initialised r×c matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows requires a non-empty row set")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mat: FromRows rows have unequal lengths")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// FromSlice builds an r×c matrix from row-major data (copied).
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic("mat: FromSlice data length mismatch")
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// ColVec returns a len(v)×1 column vector matrix.
func ColVec(v []float64) *Matrix { return FromSlice(len(v), 1, v) }

// RowVec returns a 1×len(v) row vector matrix.
func RowVec(v []float64) *Matrix { return FromSlice(1, len(v), v) }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := New(m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	mustSameShape(a, b)
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape(a, b)
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(s float64, a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = s * a.data[i]
	}
	return out
}

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(ErrDimension)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			aik := a.data[i*a.cols+k]
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += aik * bv
			}
		}
	}
	return out
}

// MulVec returns a·x for a vector x (len = a.Cols()).
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(ErrDimension)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func mustSameShape(a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(ErrDimension)
	}
}

// NormFro returns the Frobenius norm.
func (m *Matrix) NormFro() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute row sum.
func (m *Matrix) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for j := 0; j < m.cols; j++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// MaxAbs returns the largest |entry|.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// EqualApprox reports whether a and b have the same shape and all entries
// within tol of each other.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize returns (m + mᵀ)/2.
func (m *Matrix) Symmetrize() *Matrix {
	return Scale(0.5, Add(m, m.T()))
}

// HStack concatenates matrices horizontally.
func HStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("mat: HStack of nothing")
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			panic(ErrDimension)
		}
		cols += m.cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		for _, m := range ms {
			copy(out.data[i*cols+off:i*cols+off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
			off += m.cols
		}
	}
	return out
}

// Kron returns the Kronecker product a⊗b.
func Kron(a, b *Matrix) *Matrix {
	out := New(a.rows*b.rows, a.cols*b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			av := a.data[i*a.cols+j]
			if av == 0 {
				continue
			}
			for p := 0; p < b.rows; p++ {
				for q := 0; q < b.cols; q++ {
					out.data[(i*b.rows+p)*out.cols+(j*b.cols+q)] = av * b.data[p*b.cols+q]
				}
			}
		}
	}
	return out
}

// Vec stacks the columns of m into a single column vector (column-major
// vectorisation, as used by the Kronecker identity vec(AXB) = (Bᵀ⊗A)vec(X)).
func Vec(m *Matrix) []float64 {
	out := make([]float64, m.rows*m.cols)
	k := 0
	for j := 0; j < m.cols; j++ {
		for i := 0; i < m.rows; i++ {
			out[k] = m.data[i*m.cols+j]
			k++
		}
	}
	return out
}

// Unvec is the inverse of Vec for an r×c target shape.
func Unvec(v []float64, r, c int) *Matrix {
	if len(v) != r*c {
		panic(ErrDimension)
	}
	m := New(r, c)
	k := 0
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			m.data[i*c+j] = v[k]
			k++
		}
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "% .6g", m.data[i*m.cols+j])
		}
		b.WriteString("]")
		if i != m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
