package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveVec(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, x[0], 0.8, 1e-12, "x0")
	almostEq(t, x[1], 1.4, 1e-12, "x1")
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveVec(a, []float64{1, 2}); err == nil {
		t.Fatalf("expected singular error")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 1; n <= 6; n++ {
		a := randomMatrix(rng, n, n)
		// Diagonal boost keeps it comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !EqualApprox(Mul(a, inv), Identity(n), 1e-9) {
			t.Fatalf("A·A⁻¹ != I for n=%d", n)
		}
	}
}

// Det returns the determinant of a square matrix (0 when singular): the
// oracle the eigenvalue tests check against.
func Det(a *Matrix) float64 {
	f, err := Factor(a)
	if err != nil {
		return 0
	}
	return f.Det()
}

// Det returns the determinant from the factorisation: the product of U's
// diagonal, negated once per transposition of the row permutation.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := 1.0
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
		if !seen[i] { // a cycle of length l is l−1 transpositions
			for j := f.piv[i]; j != i; j = f.piv[j] {
				seen[j] = true
				d = -d
			}
		}
	}
	return d
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	almostEq(t, Det(a), -2, 1e-12, "det 2x2")
	b := FromRows([][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}})
	almostEq(t, Det(b), 24, 1e-12, "det diag")
	// Row swap flips sign.
	c := FromRows([][]float64{{3, 4}, {1, 2}})
	almostEq(t, Det(c), 2, 1e-12, "det swapped")
}

func TestDetSingularIsZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	almostEq(t, Det(a), 0, 1e-12, "det singular")
}

// Property: det(AB) = det(A)det(B).
func TestDetProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 3)
		b := randomMatrix(r, 3, 3)
		lhs := Det(Mul(a, b))
		rhs := Det(a) * Det(b)
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve returns x with A·x = b.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := randomMatrix(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveVec(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(Mul(l, l.T()), a, 1e-12) {
		t.Fatalf("L·Lᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := Cholesky(a); err == nil {
		t.Fatalf("expected ErrNotSPD")
	}
	b := FromRows([][]float64{{1, 5}, {2, 1}}) // not symmetric
	if _, err := Cholesky(b); err == nil {
		t.Fatalf("expected ErrNotSPD for asymmetric input")
	}
}

func TestIsPositiveDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Gram matrices are PSD; add εI to make them PD.
	for trial := 0; trial < 20; trial++ {
		g := randomMatrix(rng, 4, 4)
		a := Add(Mul(g.T(), g), Scale(0.1, Identity(4)))
		if !IsPositiveDefinite(a) {
			t.Fatalf("Gram+0.1I not reported PD:\n%v", a)
		}
		if IsPositiveDefinite(Scale(-1, a)) {
			t.Fatalf("negative definite reported PD")
		}
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(New(2, 3)); err == nil {
		t.Fatalf("expected dimension error")
	}
}
