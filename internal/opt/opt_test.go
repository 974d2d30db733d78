package opt

import (
	"math"
	"reflect"
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

// TestNelderMeadStop: the predicate ends the search at the first best vertex
// it accepts and that vertex is what comes back; a predicate that never
// accepts (like no predicate) leaves the iterate sequence bit for bit.
func TestNelderMeadStop(t *testing.T) {
	rosenbrock := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x0 := []float64{-1.2, 1}
	var trace [2][]float64
	recording := func(k int) func([]float64) float64 {
		return func(x []float64) float64 {
			trace[k] = append(trace[k], x[0], x[1])
			return rosenbrock(x)
		}
	}
	full, err := NelderMead(recording(0), x0, NelderMeadOptions{MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	never, err := NelderMead(recording(1), x0, NelderMeadOptions{MaxIters: 5000,
		Stop: func([]float64, float64) bool { asked++; return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace[0], trace[1]) || !reflect.DeepEqual(full, never) {
		t.Fatalf("a predicate that never accepts changed the search: %d vs %d evaluations, results %+v vs %+v",
			len(trace[0])/2, len(trace[1])/2, full, never)
	}
	if asked == 0 {
		t.Fatal("the predicate was never consulted")
	}

	const good = 0.5
	stopped, err := NelderMead(rosenbrock, x0, NelderMeadOptions{MaxIters: 5000,
		Stop: func(x []float64, f float64) bool {
			if f != rosenbrock(x) {
				t.Errorf("predicate handed f = %v for a vertex that evaluates to %v", f, rosenbrock(x))
			}
			return f < good
		}})
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iters >= full.Iters || stopped.F >= good || stopped.F != rosenbrock(stopped.X) {
		t.Fatalf("stopped search: %d iterations (full run %d), F = %v at %v", stopped.Iters, full.Iters, stopped.F, stopped.X)
	}
	// The stop is at the first accepted vertex: one iteration earlier the
	// best vertex was not yet good enough.
	before, err := NelderMead(rosenbrock, x0, NelderMeadOptions{MaxIters: stopped.Iters - 1})
	if err != nil {
		t.Fatal(err)
	}
	if before.F < good {
		t.Fatalf("best vertex was already %v < %v after %d iterations, the search stopped at %d", before.F, good, before.Iters, stopped.Iters)
	}
}
