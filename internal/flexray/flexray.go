// Package flexray models the communication substrate of the paper: a
// FlexRay bus whose cycle is split into a static (time-triggered) segment
// of equal-length slots and a dynamic (event-triggered) segment of
// mini-slots (Sec. 2). It provides
//
//   - a cycle-accurate bus simulator for both segments,
//   - a worst-case response-time analysis for dynamic-segment frames in the
//     spirit of Pop et al. [11] (simplified to the single-channel,
//     non-cycle-multiplexed configuration the paper uses), and
//   - the runtime-reconfiguration middleware of Majumdar et al. [8] that
//     lets a control message migrate between a static slot and a dynamic
//     channel — the mechanism the switching strategy relies on, since raw
//     FlexRay schedules are fixed at design time.
//
// The control layer uses exactly two facts that this package substantiates:
// a message in a static slot arrives within its slot window of the same
// cycle (negligible sensing-to-actuation delay), and a dynamic-segment
// message arrives within a bounded number of cycles (one, when the analysis
// of WCRTCycles returns 1), justifying the one-sample-delay model of Eq. 4.
package flexray

import (
	"errors"
	"fmt"
	"sort"
)

// Config describes one FlexRay communication cycle.
type Config struct {
	StaticSlots   int     // number of static slots per cycle
	SlotLen       float64 // Ψ: static slot length (ms)
	MiniSlots     int     // number of mini-slots in the dynamic segment
	MiniSlotLen   float64 // ψ: mini-slot length (ms), typically ψ ≪ Ψ
	NITLen        float64 // network idle time at the end of the cycle (ms)
	MaxFrameMinis int     // pLatestTx guard: a dynamic frame must start early enough
}

// CycleLen returns the cycle length in ms.
func (c Config) CycleLen() float64 {
	return float64(c.StaticSlots)*c.SlotLen + float64(c.MiniSlots)*c.MiniSlotLen + c.NITLen
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StaticSlots < 0 || c.MiniSlots < 0 {
		return errors.New("flexray: negative segment sizes")
	}
	if c.StaticSlots > 0 && c.SlotLen <= 0 {
		return errors.New("flexray: static slots need a positive slot length")
	}
	if c.MiniSlots > 0 && c.MiniSlotLen <= 0 {
		return errors.New("flexray: mini-slots need a positive length")
	}
	if c.MaxFrameMinis < 0 || c.MaxFrameMinis > c.MiniSlots {
		return errors.New("flexray: MaxFrameMinis out of range")
	}
	return nil
}

// Frame is a message configured on the bus.
type Frame struct {
	ID    int // unique; also the dynamic-segment priority (lower = earlier)
	Name  string
	Minis int // transmission length in mini-slots (dynamic segment)
	// Slot is the static slot index when the frame is currently routed
	// through the static segment; −1 when routed through the dynamic
	// segment. Managed by the Middleware.
	Slot int
}

// TxRecord reports one completed transmission.
type TxRecord struct {
	FrameID int
	Cycle   int     // cycle in which the frame was transmitted
	Start   float64 // offset within the cycle (ms)
	End     float64
	Static  bool
}

// Bus simulates cycles of the configured FlexRay schedule.
type Bus struct {
	cfg    Config
	frames map[int]*Frame
	// pending dynamic transmissions queued per frame id (count of queued
	// messages; FlexRay transmits at most one frame instance per cycle).
	pending map[int]int
	cycle   int
	// static slot assignment: slot index → frame id (−1 free)
	slots []int
	log   []TxRecord
}

// NewBus creates an empty bus.
func NewBus(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := make([]int, cfg.StaticSlots)
	for i := range slots {
		slots[i] = -1
	}
	return &Bus{cfg: cfg, frames: map[int]*Frame{}, pending: map[int]int{}, slots: slots}, nil
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// AddFrame registers a frame, initially routed through the dynamic segment.
func (b *Bus) AddFrame(f Frame) error {
	if _, dup := b.frames[f.ID]; dup {
		return fmt.Errorf("flexray: duplicate frame id %d", f.ID)
	}
	if f.Minis <= 0 {
		return fmt.Errorf("flexray: frame %d needs a positive length", f.ID)
	}
	if b.cfg.MaxFrameMinis > 0 && f.Minis > b.cfg.MaxFrameMinis {
		return fmt.Errorf("flexray: frame %d length %d exceeds pLatestTx budget %d", f.ID, f.Minis, b.cfg.MaxFrameMinis)
	}
	nf := f
	nf.Slot = -1
	b.frames[f.ID] = &nf
	return nil
}

// AssignStatic routes a frame through the given static slot (exclusive).
func (b *Bus) AssignStatic(frameID, slot int) error {
	f, ok := b.frames[frameID]
	if !ok {
		return fmt.Errorf("flexray: unknown frame %d", frameID)
	}
	if slot < 0 || slot >= b.cfg.StaticSlots {
		return fmt.Errorf("flexray: slot %d out of range", slot)
	}
	if b.slots[slot] != -1 && b.slots[slot] != frameID {
		return fmt.Errorf("flexray: slot %d already owned by frame %d", slot, b.slots[slot])
	}
	if f.Slot >= 0 {
		b.slots[f.Slot] = -1
	}
	f.Slot = slot
	b.slots[slot] = frameID
	return nil
}

// ReleaseStatic moves a frame back to the dynamic segment.
func (b *Bus) ReleaseStatic(frameID int) error {
	f, ok := b.frames[frameID]
	if !ok {
		return fmt.Errorf("flexray: unknown frame %d", frameID)
	}
	if f.Slot >= 0 {
		b.slots[f.Slot] = -1
		f.Slot = -1
	}
	return nil
}

// Queue enqueues one message instance of the frame for transmission.
func (b *Bus) Queue(frameID int) error {
	if _, ok := b.frames[frameID]; !ok {
		return fmt.Errorf("flexray: unknown frame %d", frameID)
	}
	b.pending[frameID]++
	return nil
}

// RunCycle simulates one communication cycle and returns the transmissions
// completed in it. Static-slot owners with a pending message transmit in
// their slot window; dynamic frames are served in priority (frame ID)
// order, each consuming its length in mini-slots, as long as the remaining
// dynamic segment admits them (the pLatestTx rule); leftovers wait for the
// next cycle.
func (b *Bus) RunCycle() []TxRecord {
	var out []TxRecord
	// Static segment.
	for slot, fid := range b.slots {
		if fid < 0 || b.pending[fid] == 0 {
			continue
		}
		start := float64(slot) * b.cfg.SlotLen
		rec := TxRecord{FrameID: fid, Cycle: b.cycle, Start: start, End: start + b.cfg.SlotLen, Static: true}
		b.pending[fid]--
		out = append(out, rec)
	}
	// Dynamic segment: walk the mini-slot counter.
	dynStart := float64(b.cfg.StaticSlots) * b.cfg.SlotLen
	ids := make([]int, 0, len(b.frames))
	for id, f := range b.frames {
		if f.Slot < 0 && b.pending[id] > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids) // frame ID = priority
	mini := 0
	for _, id := range ids {
		f := b.frames[id]
		// pLatestTx: the frame must fit before the dynamic segment ends.
		if mini+f.Minis > b.cfg.MiniSlots {
			mini++ // the empty mini-slot still elapses
			continue
		}
		start := dynStart + float64(mini)*b.cfg.MiniSlotLen
		end := start + float64(f.Minis)*b.cfg.MiniSlotLen
		out = append(out, TxRecord{FrameID: id, Cycle: b.cycle, Start: start, End: end, Static: false})
		b.pending[id]--
		mini += f.Minis
	}
	b.log = append(b.log, out...)
	b.cycle++
	return out
}

// Log returns all transmissions so far.
func (b *Bus) Log() []TxRecord { return b.log }

// WCRTCycles bounds the worst-case number of cycles a dynamic frame waits
// before its transmission completes, given the set of frames that may
// compete in the dynamic segment (after Pop et al. [11], restricted to one
// instance per competitor per cycle — the sampled-control traffic model).
// A result of 1 means the frame always goes out in the cycle it is queued,
// which is what licenses the one-sample-delay controller model (Eq. 4)
// when the sampling period equals the cycle length.
func WCRTCycles(cfg Config, frame Frame, competitors []Frame) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if frame.Minis > cfg.MiniSlots {
		return 0, fmt.Errorf("flexray: frame %d cannot fit the dynamic segment", frame.ID)
	}
	// Higher-priority load per cycle (mini-slots), one instance each.
	hp := 0
	for _, c := range competitors {
		if c.ID < frame.ID {
			hp += c.Minis
		}
	}
	// Within one cycle the frame makes it iff the higher-priority load plus
	// its own length fits the segment. Otherwise the surplus spills over at
	// one segment-length per cycle (competitors re-queue at most once per
	// cycle in the sampled model).
	if hp+frame.Minis <= cfg.MiniSlots {
		return 1, nil
	}
	cycles := 1
	remaining := hp + frame.Minis
	for remaining > cfg.MiniSlots {
		remaining -= cfg.MiniSlots
		cycles++
		if cycles > 1000 {
			return 0, errors.New("flexray: WCRT does not converge (overload)")
		}
	}
	return cycles, nil
}
