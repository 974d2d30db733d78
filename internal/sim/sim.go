// Package sim co-simulates multiple control applications sharing one TT
// slot: plant dynamics (mode MT on the slot, mode ME otherwise), the
// EDF-like arbiter of internal/sched, and optionally a FlexRay bus with the
// reconfiguration middleware routing each application's control message.
// It reproduces the paper's Figs. 8–9: response curves under concrete
// disturbance scenarios together with the slot-occupancy timeline.
package sim

import (
	"fmt"

	"tightcps/internal/flexray"
	"tightcps/internal/lti"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
)

// Scenario drives a co-simulation run.
type Scenario struct {
	// Disturbances lists (sample, application) injection points. The plant
	// state jumps to the application's X0 at that sample, and the arbiter
	// observes the request at the same sample (boundary arrival).
	Disturbances []Disturbance
	// Horizon is the number of samples to simulate.
	Horizon int
	// Policy selects the arbiter's preemption policy.
	Policy sched.PreemptionPolicy
}

// Disturbance is one injection.
type Disturbance struct {
	Sample int
	App    int
}

// AppResult is the per-application outcome.
type AppResult struct {
	Name      string
	Y         []float64 // output trajectory y[0..Horizon]
	Modes     []switching.Mode
	TTSamples int  // samples spent in MT (TT usage cost)
	Settled   bool // settled w.r.t. the tolerance after its last disturbance
	J         int  // settling time in samples after its last disturbance
	Met       bool // J ≤ J*
}

// Result is a full co-simulation outcome.
type Result struct {
	Apps      []AppResult
	Occupancy []int // slot holder per sample (−1 idle)
	Events    []sched.Event
	Missed    bool
}

// Runner couples plants, profiles and the arbiter.
type Runner struct {
	plants   []switching.Plant
	profiles []*switching.Profile
	tol      float64
}

// New creates a Runner. Profiles must correspond index-wise to plants;
// settling is judged at tol, and tol ≤ 0 uses switching.SettleTol.
func New(plantList []switching.Plant, profiles []*switching.Profile, tol float64) (*Runner, error) {
	if len(plantList) != len(profiles) {
		return nil, fmt.Errorf("sim: %d plants vs %d profiles", len(plantList), len(profiles))
	}
	if tol <= 0 {
		tol = switching.SettleTol
	}
	return &Runner{plants: plantList, profiles: profiles, tol: tol}, nil
}

// Run executes the scenario.
func (r *Runner) Run(sc Scenario) (*Result, error) {
	n := len(r.plants)
	if sc.Horizon <= 0 {
		sc.Horizon = 500
	}
	distAt := make(map[int][]int) // sample → apps
	lastDist := make([]int, n)
	for i := range lastDist {
		lastDist[i] = -1
	}
	for _, d := range sc.Disturbances {
		if d.App < 0 || d.App >= n {
			return nil, fmt.Errorf("sim: disturbance for unknown app %d", d.App)
		}
		if d.Sample < 0 || d.Sample >= sc.Horizon {
			return nil, fmt.Errorf("sim: disturbance at sample %d outside horizon", d.Sample)
		}
		distAt[d.Sample] = append(distAt[d.Sample], d.App)
	}

	arb := sched.NewArbiter(r.profiles, sched.Options{Policy: sc.Policy})
	sims := make([]*switching.Simulator, n)
	res := &Result{Apps: make([]AppResult, n)}
	for i := range sims {
		zero := make([]float64, r.plants[i].Sys.Order())
		sims[i] = switching.NewSimulator(r.plants[i])
		sims[i].Reset(zero) // steady state until disturbed
		res.Apps[i] = AppResult{
			Name:  r.plants[i].Name,
			Y:     make([]float64, sc.Horizon+1),
			Modes: make([]switching.Mode, sc.Horizon),
		}
	}

	for k := 0; k < sc.Horizon; k++ {
		// Inject disturbances: the plant state jumps at the sample instant.
		for _, app := range distAt[k] {
			sims[app].Reset(r.plants[app].X0)
			lastDist[app] = k
		}
		// Arbiter observes the same instant.
		if err := arb.Tick(distAt[k]); err != nil {
			return nil, err
		}
		// Record outputs, pick modes, advance plants.
		for i := range sims {
			res.Apps[i].Y[k] = sims[i].Output()
			if arb.InTT(i) {
				res.Apps[i].Modes[k] = switching.MT
				res.Apps[i].TTSamples++
				sims[i].StepMT()
			} else {
				res.Apps[i].Modes[k] = switching.ME
				sims[i].StepME()
			}
		}
	}
	for i := range sims {
		res.Apps[i].Y[sc.Horizon] = sims[i].Output()
	}

	res.Events = arb.Events()
	res.Occupancy = sched.Occupancy(res.Events, sc.Horizon)
	res.Missed = arb.Missed()

	// Settling per app, measured from its last disturbance.
	for i := range res.Apps {
		a := &res.Apps[i]
		if lastDist[i] < 0 {
			a.Settled, a.Met = true, true
			continue
		}
		tail := a.Y[lastDist[i]:]
		j, ok := lti.SettlingIndex(tail, r.tol)
		a.Settled = ok
		a.J = j
		a.Met = ok && j <= r.plants[i].JStar
	}
	return res, nil
}

// BusResult augments a co-simulation with bus-level transmission records.
type BusResult struct {
	*Result
	Transmissions []flexray.TxRecord
}

// RunWithBus executes the scenario while routing every application's
// control message over a FlexRay bus through the reconfiguration
// middleware: the arbiter's occupant holds a pooled static slot, everyone
// else transmits in the dynamic segment. One bus cycle per sample.
func (r *Runner) RunWithBus(sc Scenario, cfg flexray.Config, pool []int) (*BusResult, error) {
	bus, err := flexray.NewBus(cfg)
	if err != nil {
		return nil, err
	}
	for i := range r.plants {
		if err := bus.AddFrame(flexray.Frame{ID: i + 1, Name: r.plants[i].Name, Minis: 2}); err != nil {
			return nil, err
		}
	}
	mw, err := flexray.NewMiddleware(bus, pool)
	if err != nil {
		return nil, err
	}
	base, err := r.Run(sc)
	if err != nil {
		return nil, err
	}
	// Replay the occupancy on the bus: every sample, each active app sends
	// one message; the occupant is routed TT via the middleware.
	for k := 0; k < len(base.Occupancy); k++ {
		holder := base.Occupancy[k]
		for i := range r.plants {
			fid := i + 1
			if i == holder {
				if _, err := mw.AcquireTT(fid); err != nil {
					return nil, err
				}
			} else if mw.HoldsTT(fid) {
				if err := mw.ReleaseTT(fid); err != nil {
					return nil, err
				}
			}
			if err := bus.Queue(fid); err != nil {
				return nil, err
			}
		}
		bus.RunCycle()
	}
	return &BusResult{Result: base, Transmissions: bus.Log()}, nil
}
