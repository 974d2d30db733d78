package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trace returns the sum of diagonal entries of a square matrix.
func trace(m *Matrix) float64 {
	if m.rows != m.cols {
		panic(ErrDimension)
	}
	s := 0.0
	for i := range m.rows {
		s += m.data[i*m.cols+i]
	}
	return s
}

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("zero init violated")
	}
}

func TestFromRowsAndSlice(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if !EqualApprox(a, b, 0) {
		t.Fatalf("FromRows != FromSlice:\n%v\n%v", a, b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on out-of-range access")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	d := Diag([]float64{1, 1, 1})
	if !EqualApprox(i3, d, 0) {
		t.Fatalf("Identity(3) != Diag(ones)")
	}
	if trace(i3) != 3 {
		t.Fatalf("trace(I3) = %v", trace(i3))
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	sum := Add(a, b)
	want := FromRows([][]float64{{5, 5}, {5, 5}})
	if !EqualApprox(sum, want, 0) {
		t.Fatalf("Add wrong: %v", sum)
	}
	if !EqualApprox(Sub(sum, b), a, 0) {
		t.Fatalf("Sub(Add(a,b),b) != a")
	}
	if !EqualApprox(Scale(2, a), Add(a, a), 0) {
		t.Fatalf("Scale(2,a) != a+a")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !EqualApprox(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 6; n++ {
		a := randomMatrix(rng, n, n)
		if !EqualApprox(Mul(a, Identity(n)), a, 1e-12) {
			t.Fatalf("A·I != A for n=%d", n)
		}
		if !EqualApprox(Mul(Identity(n), a), a, 1e-12) {
			t.Fatalf("I·A != A for n=%d", n)
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 3)
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	want := Mul(a, ColVec(x))
	for i, v := range got {
		almostEq(t, v, want.At(i, 0), 1e-12, "MulVec")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape wrong")
	}
	if !EqualApprox(at.T(), a, 0) {
		t.Fatalf("(Aᵀ)ᵀ != A")
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestTransposeProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 2)
		return EqualApprox(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestHStack(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}})
	b := FromRows([][]float64{{3}, {4}})
	h := HStack(a, b)
	if h.Rows() != 2 || h.Cols() != 2 || h.At(0, 1) != 3 {
		t.Fatalf("HStack wrong: %v", h)
	}
}

func TestKronVecIdentity(t *testing.T) {
	// vec(A·X·B) = (Bᵀ ⊗ A)·vec(X)
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 3, 3)
	x := randomMatrix(rng, 3, 2)
	b := randomMatrix(rng, 2, 2)
	lhs := Vec(Mul(Mul(a, x), b))
	rhs := Kron(b.T(), a).MulVec(Vec(x))
	for i := range lhs {
		almostEq(t, rhs[i], lhs[i], 1e-10, "Kron/Vec identity")
	}
}

func TestUnvecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 3, 4)
	if !EqualApprox(Unvec(Vec(m), 3, 4), m, 0) {
		t.Fatalf("Unvec(Vec(m)) != m")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 4}})
	almostEq(t, a.NormFro(), math.Sqrt(30), 1e-12, "fro")
	almostEq(t, a.NormInf(), 7, 0, "inf")
	almostEq(t, a.MaxAbs(), 4, 0, "maxabs")
}

func TestSymmetric(t *testing.T) {
	s := FromRows([][]float64{{2, 1}, {1, 2}})
	if !s.IsSymmetric(0) {
		t.Fatalf("symmetric matrix reported asymmetric")
	}
	a := FromRows([][]float64{{2, 1}, {0, 2}})
	if a.IsSymmetric(1e-12) {
		t.Fatalf("asymmetric matrix reported symmetric")
	}
	if !Scale(2, a.Symmetrize()).IsSymmetric(0) {
		t.Fatalf("Symmetrize not symmetric")
	}
}

func TestRowColClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatalf("Clone aliases data")
	}
	r := a.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	col := a.Col(1)
	if col[0] != 2 || col[1] != 4 {
		t.Fatalf("Col(1) = %v", col)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	_ = FromRows([][]float64{{1, 2}, {3, 4}}).String()
}

func TestTraceProperty(t *testing.T) {
	// trace(AB) == trace(BA)
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 4, 4)
		b := randomMatrix(r, 4, 4)
		return math.Abs(trace(Mul(a, b))-trace(Mul(b, a))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
