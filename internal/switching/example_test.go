package switching_test

import (
	"fmt"

	"tightcps/internal/control"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
)

// The motivational example of Sec. 3.1 (Figs. 2–4): the DC motor
// position-control system with one fast TT controller and two candidate
// ET controllers, one switching-stable and one not — why the CQLF
// condition matters, and how the dwell-time tables arise.
func Example_motivational() {
	sys := plants.Motivational()
	stable := switching.Plant{Name: "stable", Sys: sys, KT: plants.MotivationalKT,
		KE: plants.MotivationalKEStable, X0: plants.MotivationalX0, JStar: 18, R: 25}
	unstable := stable
	unstable.Name = "unstable"
	unstable.KE = plants.MotivationalKEUnstable

	// Fig. 2: the four-wait/four-dwell switching experiment.
	fmt.Println("Fig. 2 — settling times (threshold |y| ≤ 0.02):")
	for _, c := range []struct {
		name      string
		p         switching.Plant
		tw, dwell int
	}{
		{"KT only (dedicated slot)", stable, 0, 4000},
		{"KsE only", stable, 4000, 0},
		{"KuE only", unstable, 4000, 0},
		{"4·KsE + 4·KT + n·KsE", stable, 4, 4},
		{"4·KuE + 4·KT + n·KuE", unstable, 4, 4},
	} {
		j, ok := switching.SettleAfterSwitch(c.p, c.tw, c.dwell, switching.Config{})
		if !ok {
			fmt.Printf("  %-26s did not settle\n", c.name)
			continue
		}
		fmt.Printf("  %-26s J = %.2f s\n", c.name, float64(j)*plants.H)
	}

	// Switching stability: the difference between the two pairs.
	_, errS := control.SwitchingStable(sys, plants.MotivationalKT, plants.MotivationalKEStable)
	_, errU := control.SwitchingStable(sys, plants.MotivationalKT, plants.MotivationalKEUnstable)
	fmt.Printf("CQLF search: KT+KsE: %v; KT+KuE: %v\n", errS, errU)

	// Fig. 4: the dwell-time tables for J* = 0.36 s.
	prof, err := switching.Compute(stable, switching.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Fig. 4 — T*w = %d; dwell tables (per Tw):\n", prof.TwStar)
	fmt.Printf("  Tdw− = %v\n  Tdw+ = %v\n", prof.TdwMinus, prof.TdwPlus)
	fmt.Printf("  distinct values: Tdw− %v, Tdw+ %v (few values ⇒ RLE-friendly)\n",
		switching.DistinctValues(prof.TdwMinus), switching.DistinctValues(prof.TdwPlus))
	// Output:
	// Fig. 2 — settling times (threshold |y| ≤ 0.02):
	//   KT only (dedicated slot)   J = 0.18 s
	//   KsE only                   J = 0.70 s
	//   KuE only                   J = 0.70 s
	//   4·KsE + 4·KT + n·KsE       J = 0.28 s
	//   4·KuE + 4·KT + n·KuE       J = 0.58 s
	// CQLF search: KT+KsE: <nil>; KT+KuE: control: no common quadratic Lyapunov function found
	// Fig. 4 — T*w = 11; dwell tables (per Tw):
	//   Tdw− = [3 4 3 3 3 3 3 3 3 4 4 5]
	//   Tdw+ = [6 6 5 5 5 6 5 5 4 4 5 5]
	//   distinct values: Tdw− [3 4 5], Tdw+ [4 5 6] (few values ⇒ RLE-friendly)
}
