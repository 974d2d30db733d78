package core_test

import (
	"fmt"
	"strings"

	"tightcps/internal/control"
	"tightcps/internal/core"
	"tightcps/internal/lti"
	"tightcps/internal/mat"
	"tightcps/internal/plants"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
	"tightcps/internal/textplot"
)

// The library's core loop from scratch: design both controllers for a
// plant, certify that switching between them is stable, compute its
// switching profile, and check whether two instances of it can share one
// TT slot.
func Example_quickstart() {
	// A DC-motor-like second-order plant, discretised from ẋ = Ax + Bu at
	// h = 20 ms.
	a := mat.FromRows([][]float64{{-10, 1}, {0, -2}})
	b := mat.ColVec([]float64{0, 2})
	c := mat.RowVec([]float64{1, 0})
	sys, err := lti.C2D(a, b, c, 0.02)
	if err != nil {
		panic(err)
	}

	// Fast TT controller: pole placement on the plain plant.
	kT, err := control.PlacePoles(sys, []complex128{0.6, 0.7})
	if err != nil {
		panic(err)
	}
	// Slow ET controller: LQR on the one-sample-delay augmented plant.
	kE, _, err := control.DLQR(sys.Augmented(), mat.Identity(3), 1)
	if err != nil {
		panic(err)
	}

	// Certify switching stability (common quadratic Lyapunov function).
	if _, err := control.SwitchingStable(sys, kT, kE); err != nil {
		panic(err)
	}
	fmt.Println("switching stability: certified by a common quadratic Lyapunov function")

	// Two identical applications with an 18-sample settling requirement.
	app := core.App{
		Name: "M1", Plant: sys, KT: kT, KE: kE,
		X0: []float64{1, 0}, JStar: 18, R: 80,
	}
	app2 := app
	app2.Name = "M2"

	prof, err := core.Profile(app, switching.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("profile: JT=%d JE=%d T*w=%d\n  Tdw− = %v\n  Tdw+ = %v\n",
		prof.JT, prof.JE, prof.TwStar, prof.TdwMinus, prof.TdwPlus)

	res, _, err := core.VerifySlotSharing([]core.App{app, app2}, core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("can M1 and M2 share one TT slot? %v (explored %d states)\n",
		res.Schedulable, res.States)
	// Output:
	// switching stability: certified by a common quadratic Lyapunov function
	// profile: JT=13 JE=20 T*w=14
	//   Tdw− = [9 8 7 7 6 5 5 4 3 2 1 1 1 1 1]
	//   Tdw+ = [9 8 7 7 6 5 5 4 3 2 1 1 1 1 1]
	// can M1 and M2 share one TT slot? true (explored 6572 states)
}

// The case study of Sec. 5: the six applications dimensioned onto TT slots
// with exact verification, then the Fig. 8 and Fig. 9 co-simulations of
// the two slots with their occupancy timelines.
func ExampleDimensioner() {
	d := &core.Dimensioner{Apps: core.CaseStudyApps()}
	alloc, err := d.Dimension()
	if err != nil {
		panic(err)
	}
	fmt.Printf("dimensioning: %d TT slots\n", len(alloc.Slots))
	for si, names := range alloc.SlotNames() {
		fmt.Printf("  S%d: %s\n", si+1, strings.Join(names, ", "))
	}

	fmt.Println("Fig. 8 — slot S1, simultaneous disturbances at C1, C5, C4, C3:")
	coSimulate(alloc, 0, []sim.Disturbance{{Sample: 0, App: 0}, {Sample: 0, App: 1}, {Sample: 0, App: 2}, {Sample: 0, App: 3}})
	fmt.Println("Fig. 9 — slot S2, C6 disturbed 10 samples after C2:")
	coSimulate(alloc, 1, []sim.Disturbance{{Sample: 0, App: 1}, {Sample: 10, App: 0}})
	// Output:
	// dimensioning: 2 TT slots
	//   S1: C1, C5, C4, C3
	//   S2: C6, C2
	// Fig. 8 — slot S1, simultaneous disturbances at C1, C5, C4, C3:
	// C1   ███·····································
	// C5   ···███··································
	// C4   ······█████·····························
	// C3   ···········█████························
	//   C1: J = 18 samples (0.36 s), J* = 18, met = true, TT samples = 3
	//   C5: J = 18 samples (0.36 s), J* = 18, met = true, TT samples = 3
	//   C4: J = 19 samples (0.38 s), J* = 19, met = true, TT samples = 5
	//   C3: J = 18 samples (0.36 s), J* = 20, met = true, TT samples = 5
	// Fig. 9 — slot S2, C6 disturbed 10 samples after C2:
	// C6   ··········███████████···················
	// C2   █████████·······························
	//   C6: J = 11 samples (0.22 s), J* = 20, met = true, TT samples = 11
	//   C2: J = 15 samples (0.30 s), J* = 25, met = true, TT samples = 9
}

// coSimulate co-simulates one dimensioned slot under a disturbance
// scenario whose app indices refer to the slot's member order, printing
// the first 40 samples of its occupancy and every application's settling.
func coSimulate(alloc *core.Allocation, slot int, dists []sim.Disturbance) {
	var pls []switching.Plant
	var profs []*switching.Profile
	var names []string
	for _, i := range alloc.Slots[slot] {
		p := alloc.Profiles[i]
		a, err := plants.ByName(p.Name)
		if err != nil {
			panic(err)
		}
		pls = append(pls, plants.SwitchingPlant(a))
		profs = append(profs, p)
		names = append(names, p.Name)
	}
	r, err := sim.New(pls, profs, plants.SettleTol)
	if err != nil {
		panic(err)
	}
	res, err := r.Run(sim.Scenario{Disturbances: dists, Horizon: 120})
	if err != nil {
		panic(err)
	}
	fmt.Print(textplot.Occupancy(names, res.Occupancy[:40]))
	for i, a := range res.Apps {
		fmt.Printf("  %s: J = %d samples (%.2f s), J* = %d, met = %v, TT samples = %d\n",
			a.Name, a.J, float64(a.J)*plants.H, pls[i].JStar, a.Met, a.TTSamples)
	}
	if res.Missed {
		fmt.Println("  deadline missed — impossible on a verified slot")
	}
}
