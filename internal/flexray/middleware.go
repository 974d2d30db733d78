package flexray

import (
	"errors"
	"fmt"
)

// Middleware is the runtime-reconfiguration layer of Majumdar et al. [8]:
// FlexRay schedules are frozen at design time, so switching a control
// message between TT and ET communication needs a software layer that owns
// a pool of static slots and re-routes messages on request. This is the
// mechanism the paper's switching strategy assumes; the scheduler's grant/
// release decisions map one-to-one onto AcquireTT/ReleaseTT calls here.
type Middleware struct {
	bus *Bus
	// pool of static slot indices the middleware may hand out
	pool []int
	// owner[slot] = frame currently routed through the pooled slot
	owner map[int]int
	// slotOf[frame] = pooled slot held by the frame
	slotOf map[int]int
}

// ErrNoFreeSlot is returned when every pooled slot is taken.
var ErrNoFreeSlot = errors.New("flexray: middleware has no free TT slot")

// NewMiddleware wraps a bus with a pool of reconfigurable static slots.
func NewMiddleware(bus *Bus, pool []int) (*Middleware, error) {
	for _, s := range pool {
		if s < 0 || s >= bus.Config().StaticSlots {
			return nil, fmt.Errorf("flexray: pooled slot %d out of range", s)
		}
	}
	return &Middleware{
		bus:    bus,
		pool:   append([]int(nil), pool...),
		owner:  map[int]int{},
		slotOf: map[int]int{},
	}, nil
}

// AcquireTT routes the frame through a free pooled static slot and returns
// the slot index. The frame transmits time-triggered from the next cycle.
func (m *Middleware) AcquireTT(frameID int) (int, error) {
	if s, has := m.slotOf[frameID]; has {
		return s, nil // idempotent
	}
	for _, s := range m.pool {
		if _, taken := m.owner[s]; taken {
			continue
		}
		if err := m.bus.AssignStatic(frameID, s); err != nil {
			return 0, err
		}
		m.owner[s] = frameID
		m.slotOf[frameID] = s
		return s, nil
	}
	return 0, ErrNoFreeSlot
}

// ReleaseTT moves the frame back to the dynamic segment, freeing its slot.
func (m *Middleware) ReleaseTT(frameID int) error {
	s, has := m.slotOf[frameID]
	if !has {
		return nil // idempotent
	}
	if err := m.bus.ReleaseStatic(frameID); err != nil {
		return err
	}
	delete(m.owner, s)
	delete(m.slotOf, frameID)
	return nil
}

// HoldsTT reports whether the frame currently owns a pooled static slot.
func (m *Middleware) HoldsTT(frameID int) bool {
	_, ok := m.slotOf[frameID]
	return ok
}
