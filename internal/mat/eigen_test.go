package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedComplex(v []complex128) []complex128 {
	out := append([]complex128(nil), v...)
	sort.Slice(out, func(i, j int) bool {
		if real(out[i]) != real(out[j]) {
			return real(out[i]) < real(out[j])
		}
		return imag(out[i]) < imag(out[j])
	})
	return out
}

func complexSetsEqual(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("eigenvalue count %d, want %d", len(got), len(want))
	}
	g, w := sortedComplex(got), sortedComplex(want)
	for i := range g {
		if cmplx.Abs(g[i]-w[i]) > tol {
			t.Fatalf("eigenvalues differ at %d: got %v want %v\nall got:  %v\nall want: %v", i, g[i], w[i], g, w)
		}
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	a := Diag([]float64{3, -1, 0.5})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{3, -1, 0.5}, 1e-10)
}

func TestEigenvaluesTriangular(t *testing.T) {
	a := FromRows([][]float64{{1, 5, 7}, {0, 2, 9}, {0, 0, 3}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{1, 2, 3}, 1e-9)
}

func TestEigenvaluesRotation(t *testing.T) {
	// Rotation by θ has eigenvalues e^{±iθ}.
	th := 0.7
	a := FromRows([][]float64{{math.Cos(th), -math.Sin(th)}, {math.Sin(th), math.Cos(th)}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{cmplx.Exp(complex(0, th)), cmplx.Exp(complex(0, -th))}, 1e-10)
}

func TestEigenvaluesSymmetricKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{1, 3}, 1e-10)
}

func TestEigenvaluesCompanionRoots(t *testing.T) {
	// Companion matrix of z³ − 6z² + 11z − 6 = (z−1)(z−2)(z−3).
	roots, err := Eigenvalues(FromRows([][]float64{{0, 0, 6}, {1, 0, -11}, {0, 1, 6}}))
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, roots, []complex128{1, 2, 3}, 1e-8)
}

func TestEigenvalues1x1(t *testing.T) {
	eig, err := Eigenvalues(FromRows([][]float64{{4.2}}))
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{4.2}, 0)
}

func TestEigenvaluesZeroMatrix(t *testing.T) {
	eig, err := Eigenvalues(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	complexSetsEqual(t, eig, []complex128{0, 0, 0}, 0)
}

func TestHessenbergPreservesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		a := randomMatrix(rng, 5, 5)
		h := Hessenberg(a)
		// Hessenberg structure: zeros below first subdiagonal.
		for i := 2; i < 5; i++ {
			for j := 0; j < i-1; j++ {
				if math.Abs(h.At(i, j)) > 1e-10 {
					t.Fatalf("not Hessenberg at (%d,%d): %v", i, j, h.At(i, j))
				}
			}
		}
		ea, err := Eigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		eh, err := Eigenvalues(h)
		if err != nil {
			t.Fatal(err)
		}
		complexSetsEqual(t, ea, eh, 1e-6)
	}
}

// Property: sum of eigenvalues = trace, product = det.
func TestEigenvalueTraceDetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := randomMatrix(r, n, n)
		eig, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		var sum, prod complex128 = 0, 1
		for _, l := range eig {
			sum += l
			prod *= l
		}
		if math.Abs(real(sum)-a.Trace()) > 1e-7*(1+math.Abs(a.Trace())) {
			return false
		}
		if math.Abs(imag(sum)) > 1e-7 {
			return false
		}
		d := Det(a)
		return cmplx.Abs(prod-complex(d, 0)) < 1e-6*(1+math.Abs(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: eigenvalues satisfy the characteristic polynomial det(A−λI)≈0.
func TestEigenvaluesAnnihilateCharPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		a := randomMatrix(rng, n, n)
		eig, err := Eigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range eig {
			if imag(l) != 0 {
				continue // det(A−λI) only directly checkable for real λ
			}
			shifted := a.Clone()
			for i := 0; i < n; i++ {
				shifted.Set(i, i, shifted.At(i, i)-real(l))
			}
			d := Det(shifted)
			// Scale by norm^n for a meaningful relative check.
			scale := math.Pow(a.NormFro()+1, float64(n))
			if math.Abs(d) > 1e-6*scale {
				t.Fatalf("det(A-λI) = %v for eigenvalue %v (scale %v)", d, l, scale)
			}
		}
	}
}

func TestSpectralRadiusAndStability(t *testing.T) {
	stable := FromRows([][]float64{{0.5, 0.1}, {0, 0.3}})
	r, err := SpectralRadius(stable)
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, r, 0.5, 1e-10, "spectral radius")
	ok, err := IsSchurStable(stable)
	if err != nil || !ok {
		t.Fatalf("stable matrix reported unstable (err=%v)", err)
	}
	unstable := Diag([]float64{1.01, 0.2})
	ok, err = IsSchurStable(unstable)
	if err != nil || ok {
		t.Fatalf("unstable matrix reported stable (err=%v)", err)
	}
}

func TestPolyFromRootsRealAndConjugate(t *testing.T) {
	// (z−2)(z−(1+i))(z−(1−i)) = z³ −4z² +6z −4.
	c := PolyFromRoots([]complex128{2, complex(1, 1), complex(1, -1)})
	want := []float64{-4, 6, -4}
	for i := range want {
		almostEq(t, c[i], want[i], 1e-12, "coef")
	}
}

func TestPolyEvalMatrixCayleyHamilton(t *testing.T) {
	// Every matrix annihilates its own characteristic polynomial.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		a := randomMatrix(rng, n, n)
		eig, err := Eigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		c := PolyFromRoots(eig)
		p := PolyEvalMatrix(c, a)
		if p.MaxAbs() > 1e-6*math.Pow(a.NormFro()+1, float64(n)) {
			t.Fatalf("Cayley–Hamilton violated, residual %v", p.MaxAbs())
		}
	}
}

func TestExpmKnown(t *testing.T) {
	// expm(0) = I.
	e, err := Expm(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(e, Identity(3), 1e-12) {
		t.Fatalf("expm(0) != I")
	}
	// expm(diag(a)) = diag(e^a).
	d, err := Expm(Diag([]float64{1, -2}))
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, d.At(0, 0), math.E, 1e-9, "e^1")
	almostEq(t, d.At(1, 1), math.Exp(-2), 1e-9, "e^-2")
}

func TestExpmRotationGenerator(t *testing.T) {
	// expm([[0,−θ],[θ,0]]) is rotation by θ.
	th := 0.9
	g := FromRows([][]float64{{0, -th}, {th, 0}})
	e, err := Expm(g)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{math.Cos(th), -math.Sin(th)}, {math.Sin(th), math.Cos(th)}})
	if !EqualApprox(e, want, 1e-9) {
		t.Fatalf("expm rotation wrong:\n%v\nwant\n%v", e, want)
	}
}

// Property: expm(A)·expm(−A) = I.
func TestExpmInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		a := Scale(0.5, randomMatrix(r, n, n))
		e1, err := Expm(a)
		if err != nil {
			return false
		}
		e2, err := Expm(Scale(-1, a))
		if err != nil {
			return false
		}
		return EqualApprox(Mul(e1, e2), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
