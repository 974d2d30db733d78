package opt

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0−1)² + 2(x1+2)²
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 2*(x[1]+2)*(x[1]+2)
	}
	res, err := NelderMead(f, []float64{5, 5}, NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]+2) > 1e-4 {
		t.Fatalf("minimum at %v, want (1,−2)", res.X)
	}
	if res.F > 1e-7 {
		t.Fatalf("objective %v not near zero", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimum at %v, want (1,1); f=%v", res.X, res.F)
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	if _, err := NelderMead(func(x []float64) float64 { return 0 }, nil, NelderMeadOptions{}); err == nil {
		t.Fatal("empty x0 accepted")
	}
}
