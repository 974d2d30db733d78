package flexray

import (
	"errors"
	"math"
	"testing"
)

func testCfg() Config {
	return Config{StaticSlots: 4, SlotLen: 1.0, MiniSlots: 20, MiniSlotLen: 0.1, NITLen: 0.5, MaxFrameMinis: 10}
}

func newTestBus(t *testing.T) *Bus {
	t.Helper()
	b, err := NewBus(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCycleLen(t *testing.T) {
	c := testCfg()
	want := 4*1.0 + 20*0.1 + 0.5
	if math.Abs(c.CycleLen()-want) > 1e-12 {
		t.Fatalf("CycleLen = %v, want %v", c.CycleLen(), want)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{StaticSlots: -1},
		{StaticSlots: 2, SlotLen: 0},
		{MiniSlots: 5, MiniSlotLen: 0},
		{MiniSlots: 5, MiniSlotLen: 0.1, MaxFrameMinis: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestStaticTransmission(t *testing.T) {
	b := newTestBus(t)
	if err := b.AddFrame(Frame{ID: 1, Name: "m1", Minis: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AssignStatic(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Queue(1); err != nil {
		t.Fatal(err)
	}
	recs := b.RunCycle()
	if len(recs) != 1 || !recs[0].Static || recs[0].Start != 2.0 || recs[0].End != 3.0 {
		t.Fatalf("static tx = %+v", recs)
	}
	// Nothing pending next cycle.
	if got := b.RunCycle(); len(got) != 0 {
		t.Fatalf("spurious tx: %+v", got)
	}
}

func TestDynamicPriorityOrder(t *testing.T) {
	b := newTestBus(t)
	for id := 3; id >= 1; id-- {
		if err := b.AddFrame(Frame{ID: id, Minis: 3}); err != nil {
			t.Fatal(err)
		}
		if err := b.Queue(id); err != nil {
			t.Fatal(err)
		}
	}
	recs := b.RunCycle()
	if len(recs) != 3 {
		t.Fatalf("want 3 transmissions, got %d", len(recs))
	}
	// Priority = ascending frame ID; mini-slot walk: 0,3,6.
	for i, want := range []struct {
		id   int
		mini int
	}{{1, 0}, {2, 3}, {3, 6}} {
		r := recs[i]
		start := 4.0 + float64(want.mini)*0.1
		if r.FrameID != want.id || math.Abs(r.Start-start) > 1e-12 || r.Static {
			t.Fatalf("tx %d = %+v, want frame %d at %v", i, r, want.id, start)
		}
	}
}

func TestDynamicOverflowDefersToNextCycle(t *testing.T) {
	b := newTestBus(t)
	// Three frames of 8 minis: only two fit in 20 minis (8+8=16; the third
	// would need 24).
	for id := 1; id <= 3; id++ {
		if err := b.AddFrame(Frame{ID: id, Minis: 8}); err != nil {
			t.Fatal(err)
		}
		if err := b.Queue(id); err != nil {
			t.Fatal(err)
		}
	}
	first := b.RunCycle()
	if len(first) != 2 || first[0].FrameID != 1 || first[1].FrameID != 2 {
		t.Fatalf("cycle 0 = %+v", first)
	}
	second := b.RunCycle()
	if len(second) != 1 || second[0].FrameID != 3 || second[0].Cycle != 1 {
		t.Fatalf("cycle 1 = %+v", second)
	}
}

func TestSlotExclusivity(t *testing.T) {
	b := newTestBus(t)
	_ = b.AddFrame(Frame{ID: 1, Minis: 1})
	_ = b.AddFrame(Frame{ID: 2, Minis: 1})
	if err := b.AssignStatic(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AssignStatic(2, 0); err == nil {
		t.Fatal("double slot assignment accepted")
	}
	if err := b.ReleaseStatic(1); err != nil {
		t.Fatal(err)
	}
	if err := b.AssignStatic(2, 0); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
}

func TestFrameValidation(t *testing.T) {
	b := newTestBus(t)
	if err := b.AddFrame(Frame{ID: 1, Minis: 0}); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if err := b.AddFrame(Frame{ID: 1, Minis: 11}); err == nil {
		t.Fatal("frame above pLatestTx budget accepted")
	}
	if err := b.AddFrame(Frame{ID: 1, Minis: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFrame(Frame{ID: 1, Minis: 2}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := b.Queue(99); err == nil {
		t.Fatal("queue for unknown frame accepted")
	}
	if err := b.AssignStatic(99, 0); err == nil {
		t.Fatal("assign for unknown frame accepted")
	}
	if err := b.AssignStatic(1, 9); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestWCRTSingleCycle(t *testing.T) {
	cfg := testCfg()
	me := Frame{ID: 5, Minis: 4}
	comp := []Frame{{ID: 1, Minis: 4}, {ID: 2, Minis: 4}, {ID: 9, Minis: 12}}
	// hp load = 8, mine 4 → 12 ≤ 20: one cycle. (Frame 9 is lower priority.)
	c, err := WCRTCycles(cfg, me, comp)
	if err != nil || c != 1 {
		t.Fatalf("WCRT = %d (%v), want 1", c, err)
	}
}

func TestWCRTMultiCycle(t *testing.T) {
	cfg := testCfg()
	me := Frame{ID: 9, Minis: 8}
	comp := []Frame{{ID: 1, Minis: 10}, {ID: 2, Minis: 10}, {ID: 3, Minis: 10}}
	// hp = 30, +8 = 38 > 20 → 1 + spillover cycles.
	c, err := WCRTCycles(cfg, me, comp)
	if err != nil {
		t.Fatal(err)
	}
	if c < 2 {
		t.Fatalf("WCRT = %d, want ≥ 2", c)
	}
}

func TestWCRTTooBig(t *testing.T) {
	if _, err := WCRTCycles(testCfg(), Frame{ID: 1, Minis: 30}, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestMiddlewareAcquireRelease(t *testing.T) {
	b := newTestBus(t)
	for id := 1; id <= 3; id++ {
		if err := b.AddFrame(Frame{ID: id, Minis: 2}); err != nil {
			t.Fatal(err)
		}
	}
	mw, err := NewMiddleware(b, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := mw.AcquireTT(1)
	if err != nil {
		t.Fatal(err)
	}
	if !mw.HoldsTT(1) || mw.HoldsTT(2) {
		t.Fatalf("acquire state wrong: slot=%d", s1)
	}
	// Idempotent acquire.
	s1b, err := mw.AcquireTT(1)
	if err != nil || s1b != s1 {
		t.Fatalf("re-acquire: %d, %v", s1b, err)
	}
	if _, err := mw.AcquireTT(2); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AcquireTT(3); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("pool exhaustion not detected: %v", err)
	}
	if err := mw.ReleaseTT(1); err != nil {
		t.Fatal(err)
	}
	if mw.HoldsTT(1) || !mw.HoldsTT(2) {
		t.Fatal("release did not clear ownership")
	}
	if _, err := mw.AcquireTT(3); err != nil {
		t.Fatalf("freed slot not reusable: %v", err)
	}
	// Releasing a non-holder is a no-op.
	if err := mw.ReleaseTT(99); err != nil {
		t.Fatalf("release of non-holder errored: %v", err)
	}
}

func TestMiddlewareRouteSwitchAffectsBus(t *testing.T) {
	// The same message goes out TT (in its slot window) after AcquireTT and
	// ET (in the dynamic segment) after ReleaseTT — the paper's mode switch
	// at bus level.
	b := newTestBus(t)
	_ = b.AddFrame(Frame{ID: 1, Minis: 2})
	mw, _ := NewMiddleware(b, []int{0})
	if _, err := mw.AcquireTT(1); err != nil {
		t.Fatal(err)
	}
	_ = b.Queue(1)
	tt := b.RunCycle()
	if len(tt) != 1 || !tt[0].Static {
		t.Fatalf("TT route not used: %+v", tt)
	}
	if err := mw.ReleaseTT(1); err != nil {
		t.Fatal(err)
	}
	_ = b.Queue(1)
	et := b.RunCycle()
	if len(et) != 1 || et[0].Static {
		t.Fatalf("ET route not used: %+v", et)
	}
	// ET latency is bounded within the cycle: justifies one-sample delay.
	if et[0].End > b.Config().CycleLen() {
		t.Fatalf("ET tx spilled past the cycle: %+v", et[0])
	}
}

func TestMiddlewarePoolValidation(t *testing.T) {
	b := newTestBus(t)
	if _, err := NewMiddleware(b, []int{9}); err == nil {
		t.Fatal("out-of-range pooled slot accepted")
	}
}
