package sim_test

import (
	"fmt"

	"tightcps/internal/flexray"
	"tightcps/internal/plants"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
)

// The bus-level view of the switching strategy: the slot S2 co-simulation
// of Fig. 9 replayed over a FlexRay bus, each control message hopping
// between the dynamic segment and a pooled static slot as the arbiter
// grants and revokes TT access. Only the hops are printed.
func ExampleRunner_RunWithBus() {
	m, err := plants.Profiles()
	if err != nil {
		panic(err)
	}
	var pls []switching.Plant
	var profs []*switching.Profile
	for _, n := range []string{"C6", "C2"} {
		a, err := plants.ByName(n)
		if err != nil {
			panic(err)
		}
		pls = append(pls, plants.SwitchingPlant(a))
		profs = append(profs, m[n])
	}
	r, err := sim.New(pls, profs, plants.SettleTol)
	if err != nil {
		panic(err)
	}
	cfg := flexray.Config{StaticSlots: 2, SlotLen: 1.0, MiniSlots: 30, MiniSlotLen: 0.1, NITLen: 0.5}
	res, err := r.RunWithBus(sim.Scenario{
		Disturbances: []sim.Disturbance{{Sample: 0, App: 1}, {Sample: 10, App: 0}},
		Horizon:      40,
	}, cfg, []int{0})
	if err != nil {
		panic(err)
	}

	fmt.Printf("bus: %d static slots, %d mini-slots, cycle %.1f ms (= sampling period)\n",
		cfg.StaticSlots, cfg.MiniSlots, cfg.CycleLen())
	fmt.Println("hops (frame 1 = C6, frame 2 = C2):")
	seg := map[int]string{}
	for _, tx := range res.Transmissions {
		s := "dynamic segment"
		if tx.Static {
			s = "TT slot"
		}
		if seg[tx.FrameID] != s {
			fmt.Printf("  cycle %2d: frame %d → %s (%.1f–%.1f ms)\n", tx.Cycle, tx.FrameID, s, tx.Start, tx.End)
			seg[tx.FrameID] = s
		}
	}
	for _, a := range res.Apps {
		fmt.Printf("%s: settled in %.2f s using %d TT samples\n", a.Name, float64(a.J)*plants.H, a.TTSamples)
	}
	// Output:
	// bus: 2 static slots, 30 mini-slots, cycle 5.5 ms (= sampling period)
	// hops (frame 1 = C6, frame 2 = C2):
	//   cycle  0: frame 2 → TT slot (0.0–1.0 ms)
	//   cycle  0: frame 1 → dynamic segment (2.0–2.2 ms)
	//   cycle  9: frame 2 → dynamic segment (2.2–2.4 ms)
	//   cycle 10: frame 1 → TT slot (0.0–1.0 ms)
	//   cycle 21: frame 1 → dynamic segment (2.0–2.2 ms)
	// C6: settled in 0.22 s using 11 TT samples
	// C2: settled in 0.30 s using 9 TT samples
}
