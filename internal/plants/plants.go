// Package plants is the paper's case-study library: the motivational DC
// motor position-control system (Sec. 3.1, Eqs. 6–9) and the six
// applications C1–C6 of Table 1, with every plant matrix, controller gain,
// requirement and disturbance parameter exactly as printed in the paper.
//
// All timing quantities are in samples of the common period H = 0.02 s.
package plants

import (
	"fmt"

	"tightcps/internal/lti"
	"tightcps/internal/mat"
)

// H is the common sampling period (seconds) used by every application.
const H = 0.02

// SettleTol is the settling threshold: |y[k]| ≤ SettleTol for all k ≥ J
// (2 % of the unit disturbance).
const SettleTol = 0.02

// App bundles one control application: plant, the two controllers, its
// performance requirement and disturbance model.
type App struct {
	Name  string
	Plant *lti.System
	KT    lti.Feedback // fast controller, TT communication (order n)
	KE    lti.Feedback // slow controller, ET communication (order n+1)
	JStar int          // settling-time requirement J* (samples)
	R     int          // minimum disturbance inter-arrival time r (samples)
	X0    []float64    // post-disturbance state
}

// PaperRow holds the results Table 1 reports for an application, used to
// compare reproduction output against the paper.
type PaperRow struct {
	JT, JE, TwStar int
	TdwMinus       []int // indexed by Tw = 0..TwStar
	TdwPlus        []int
}

// Motivational returns the DC motor position-control plant of Eq. (6).
func Motivational() *lti.System {
	phi := mat.FromRows([][]float64{
		{1, 0.0182, 0.0068},
		{0, 0.7664, 0.5186},
		{0, -0.3260, 0.1011},
	})
	gamma := mat.ColVec([]float64{0.0015, 0.1944, 0.2717})
	c := mat.RowVec([]float64{1, 0, 0})
	return lti.MustSystem(phi, gamma, c, H)
}

// Motivational gains (Eqs. 7–9).
var (
	// MotivationalKT is the fast TT-mode gain of Eq. (7).
	MotivationalKT = lti.NewFeedback([]float64{30, 1.2626, 1.1071})
	// MotivationalKEStable is KsE of Eq. (8): switching with KT is stable.
	MotivationalKEStable = lti.NewFeedback([]float64{13.8921, 0.5773, 0.8672, 1.0866})
	// MotivationalKEUnstable is KuE of Eq. (9): switching with KT is unstable.
	MotivationalKEUnstable = lti.NewFeedback([]float64{2.9120, -0.6141, -1.0399, 0.1741})
)

// MotivationalX0 is the post-disturbance state of the Sec. 3.1 example.
var MotivationalX0 = []float64{1, 0, 0}

// C1 is DC motor position control [13] — the motivational plant with the
// stable gain pair (Table 1 row 1).
func C1() App {
	return App{
		Name:  "C1",
		Plant: Motivational(),
		KT:    MotivationalKT,
		KE:    MotivationalKEStable,
		JStar: 18, R: 25,
		X0: []float64{1, 0, 0},
	}
}

// C2 is DC motor position control [10] (Table 1 row 2).
func C2() App {
	phi := mat.FromRows([][]float64{
		{1, 0.0117, 0.0001},
		{0, 0.3059, 0.0018},
		{0, -0.0021, -1.2228e-5},
	})
	gamma := mat.ColVec([]float64{0.2966, 24.8672, 0.0797})
	c := mat.RowVec([]float64{1, 0, 0})
	return App{
		Name:  "C2",
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{0.1198, -0.0130, -2.9588}),
		KE:    lti.NewFeedback([]float64{0.0864, -0.0128, -1.6833, 0.4059}),
		JStar: 25, R: 100,
		X0: []float64{1, 0, 0},
	}
}

// C3 is DC motor speed control [3] (Table 1 row 3).
func C3() App {
	phi := mat.FromRows([][]float64{
		{0.9900, 0.0065},
		{-0.0974, 0.0177},
	})
	gamma := mat.ColVec([]float64{2.8097, 319.7919})
	c := mat.RowVec([]float64{1, 0})
	return App{
		Name:  "C3",
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{0.0500, -0.0002}),
		KE:    lti.NewFeedback([]float64{0.0336, 0.0004, 0.4453}),
		JStar: 20, R: 50,
		X0: []float64{1, 0},
	}
}

// C4 is DC motor speed control [10] (Table 1 row 4).
func C4() App {
	phi := mat.FromRows([][]float64{
		{0.8187, 0.0178},
		{-0.0004, 0.9608},
	})
	gamma := mat.ColVec([]float64{0.0004, 0.0392})
	c := mat.RowVec([]float64{1, 0})
	return App{
		Name:  "C4",
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{100.0000, 15.6226}),
		KE:    lti.NewFeedback([]float64{-77.8275, 24.3161, 1.0265}),
		JStar: 19, R: 40,
		X0: []float64{1, 0},
	}
}

// C5 is DC motor speed control [12] (Table 1 row 5).
func C5() App {
	phi := mat.FromRows([][]float64{
		{0.8187, 0.0156},
		{-0.0031, 0.7408},
	})
	gamma := mat.ColVec([]float64{0.0034, 0.3456})
	c := mat.RowVec([]float64{1, 0})
	return App{
		Name:  "C5",
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{10.0000, 1.0524}),
		KE:    lti.NewFeedback([]float64{-2.4223, 0.7014, 0.2950}),
		JStar: 18, R: 25,
		X0: []float64{1, 0},
	}
}

// C6 is a cruise control [10] (Table 1 row 6).
//
// Erratum: the paper prints Φ = −0.999, which makes both closed loops
// unstable (ρ(Φ−ΓKT) ≈ 1.30) and contradicts every Table 1 result for C6.
// With Φ = +0.999 — the physically correct discretisation of the CTMS
// cruise-control model ẋ = −(b/m)x + u/m — the reproduced JT = 11 and
// JE = 41 match Table 1 exactly, so we use +0.999.
func C6() App {
	phi := mat.FromRows([][]float64{{0.999}})
	gamma := mat.ColVec([]float64{1.999e-5})
	c := mat.RowVec([]float64{1})
	return App{
		Name:  "C6",
		Plant: lti.MustSystem(phi, gamma, c, H),
		KT:    lti.NewFeedback([]float64{15000}),
		KE:    lti.NewFeedback([]float64{8125.6, 0.8659}),
		JStar: 20, R: 100,
		X0: []float64{1},
	}
}

// CaseStudy returns all six applications in paper order C1..C6.
func CaseStudy() []App {
	return []App{C1(), C2(), C3(), C4(), C5(), C6()}
}

// ByName returns the named case-study application.
func ByName(name string) (App, error) {
	for _, a := range CaseStudy() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("plants: unknown application %q", name)
}

// PaperTable1 maps application name → the results the paper reports in
// Table 1 (`go run ./cmd/experiments -all` prints them beside ours; our
// reproduction recomputes all of these from the plant data).
var PaperTable1 = map[string]PaperRow{
	"C1": {
		JT: 9, JE: 35, TwStar: 11,
		TdwMinus: []int{3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5},
		TdwPlus:  []int{6, 6, 5, 5, 5, 6, 5, 5, 4, 4, 5, 5},
	},
	"C2": {
		JT: 15, JE: 50, TwStar: 13,
		TdwMinus: []int{7, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 7, 8},
		TdwPlus:  []int{10, 10, 9, 10, 8, 9, 9, 10, 8, 8, 9, 8, 8, 8},
	},
	"C3": {
		JT: 10, JE: 31, TwStar: 15,
		TdwMinus: []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
		TdwPlus:  []int{8, 8, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 4, 4, 4},
	},
	"C4": {
		JT: 10, JE: 31, TwStar: 12,
		TdwMinus: []int{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		TdwPlus:  []int{9, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 5},
	},
	"C5": {
		JT: 10, JE: 25, TwStar: 12,
		TdwMinus: []int{4, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4},
		TdwPlus:  []int{9, 8, 7, 8, 7, 6, 7, 6, 5, 5, 4, 4, 4},
	},
	"C6": {
		JT: 11, JE: 41, TwStar: 12,
		TdwMinus: []int{7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8},
		TdwPlus:  []int{11, 11, 10, 10, 10, 10, 9, 9, 9, 8, 8, 8, 8},
	},
}
