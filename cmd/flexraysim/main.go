// Command flexraysim demonstrates the FlexRay substrate: a bus with static
// and dynamic segments, messages migrating between them through the
// reconfiguration middleware, and the dynamic-segment worst-case response
// time analysis that licenses the one-sample-delay ET controller model.
package main

import (
	"fmt"
	"io"

	"tightcps/internal/cli"
	"tightcps/internal/flexray"
)

func main() { cli.Main("flexraysim", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("flexraysim", stderr)
	cycles := fs.Int("cycles", 6, "communication cycles to simulate")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg := flexray.Config{
		StaticSlots: 4, SlotLen: 1.0,
		MiniSlots: 30, MiniSlotLen: 0.1,
		NITLen: 0.5, MaxFrameMinis: 10,
	}
	fmt.Fprintf(stdout, "FlexRay cycle: %d static slots × %.1f ms + %d mini-slots × %.1f ms + NIT %.1f ms = %.1f ms\n",
		cfg.StaticSlots, cfg.SlotLen, cfg.MiniSlots, cfg.MiniSlotLen, cfg.NITLen, cfg.CycleLen())

	bus, err := flexray.NewBus(cfg)
	if err != nil {
		return err
	}
	frames := []flexray.Frame{
		{ID: 1, Name: "steer", Minis: 4},
		{ID: 2, Name: "brake", Minis: 4},
		{ID: 3, Name: "cruise", Minis: 6},
	}
	for _, f := range frames {
		if err := bus.AddFrame(f); err != nil {
			return err
		}
		wcrt, err := flexray.WCRTCycles(cfg, f, frames)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  frame %d (%s): dynamic-segment WCRT = %d cycle(s)\n", f.ID, f.Name, wcrt)
	}

	mw, err := flexray.NewMiddleware(bus, []int{0, 1})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\ncycle-by-cycle log (frame 1 acquires a TT slot in cycle 2, releases in cycle 4):")
	for c := 0; c < *cycles; c++ {
		if c == 2 {
			slot, err := mw.AcquireTT(1)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  [middleware] frame 1 → static slot %d\n", slot)
		}
		if c == 4 {
			if err := mw.ReleaseTT(1); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "  [middleware] frame 1 → dynamic segment")
		}
		for _, f := range frames {
			if err := bus.Queue(f.ID); err != nil {
				return err
			}
		}
		for _, tx := range bus.RunCycle() {
			seg := "dyn"
			if tx.Static {
				seg = "TT "
			}
			fmt.Fprintf(stdout, "  cycle %d: frame %d [%s] %.1f–%.1f ms\n", tx.Cycle, tx.FrameID, seg, tx.Start, tx.End)
		}
	}
	return nil
}
