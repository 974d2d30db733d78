// Package core is the library facade: it ties the offline switching
// analysis, the exact model-checking verification and the first-fit mapping
// into the paper's end-to-end flow —
//
//	applications → switching profiles → verified slot partition.
//
// A downstream user describes each application (plant, the two controllers,
// requirement J*, inter-arrival bound r) and receives a dimensioned TT-slot
// allocation with control performance guaranteed in every admissible
// disturbance scenario.
package core

import (
	"context"
	"errors"

	"tightcps/internal/control"
	"tightcps/internal/lti"
	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// App describes one distributed control application.
type App struct {
	Name  string
	Plant *lti.System
	KT    lti.Feedback // fast controller (TT communication, order n)
	KE    lti.Feedback // delay-tolerant controller (ET communication, order n+1)
	X0    []float64    // post-disturbance state
	JStar int          // settling requirement, samples
	R     int          // minimum disturbance inter-arrival, samples
}

// Options tunes the dimensioning flow.
type Options struct {
	Switching switching.Config       // offline analysis knobs
	Verify    verify.Config          // model-checking knobs
	Policy    sched.PreemptionPolicy // runtime policy to verify
	// CheckSwitchingStability requires a common quadratic Lyapunov function
	// for every application's (KT, KE) pair before profiling, as Sec. 3
	// recommends. Applications failing the check abort the run.
	CheckSwitchingStability bool
	// Workers is the engine's concurrency budget. During profiling it
	// bounds the per-application fan-out; during mapping it sizes the
	// verifier's BFS-frontier pool, unless Verify.Workers pins that. 0
	// uses GOMAXPROCS; 1 forces a fully serial run. The allocation is
	// identical for every worker count.
	Workers int
	// Cache memoizes slot-admission verdicts. Nil uses a fresh per-call
	// cache (which still deduplicates within the run); supplying one reuses
	// verdicts across Dimension calls. Do not share a cache between Options
	// that verify differently (Policy or Verify knobs).
	Cache *mapping.Cache
	// AdmitFunc, when non-nil, replaces the in-process slot-sharing
	// verification: the dimensioning loop sends every admission question
	// through it instead of verify.Slot. This is the seam the admission
	// service's client mode plugs into (admit.Client.VerifyFunc), so a
	// dimensioning run shares the service's fleet-wide coalescing and
	// persistent cache. The caller must configure it to verify under the
	// semantics Options would otherwise use (NondetTies, Policy, Verify
	// knobs) — the engine cannot inspect a remote service's config.
	AdmitFunc mapping.VerifyFunc
}

// Allocation is the dimensioning result.
type Allocation struct {
	Profiles []*switching.Profile
	Slots    [][]int // per TT slot: indices into Apps/Profiles
	// Verifications counts slot-sharing admission checks (cache hits
	// included).
	Verifications int
	// CacheHits and CacheMisses report the admission-cache traffic of this
	// run.
	CacheHits   int
	CacheMisses int
	// Stability holds the CQLF results when the stability check ran.
	Stability []control.CQLFResult
}

// SlotNames renders the allocation with application names.
func (a *Allocation) SlotNames() [][]string {
	out := make([][]string, len(a.Slots))
	for si, slot := range a.Slots {
		for _, i := range slot {
			out[si] = append(out[si], a.Profiles[i].Name)
		}
	}
	return out
}

// ErrNotSwitchingStable is returned when CheckSwitchingStability is set and
// no CQLF is found for some application.
var ErrNotSwitchingStable = errors.New("core: controller pair not switching stable")

// Dimensioner runs the end-to-end flow for a set of applications.
type Dimensioner struct {
	Apps []App
	Opts Options
}

// Profile computes the switching profile of a single application.
func Profile(a App, cfg switching.Config) (*switching.Profile, error) {
	return switching.Compute(plantOf(a), cfg)
}

// FromPlants adapts a case-study application to the engine's input type.
func FromPlants(a plants.App) App {
	return App{Name: a.Name, Plant: a.Plant, KT: a.KT, KE: a.KE,
		X0: a.X0, JStar: a.JStar, R: a.R}
}

// CaseStudyApps returns the paper's six case-study applications ready for
// dimensioning.
func CaseStudyApps() []App {
	var out []App
	for _, a := range plants.CaseStudy() {
		out = append(out, FromPlants(a))
	}
	return out
}

func plantOf(a App) switching.Plant {
	return switching.Plant{Name: a.Name, Sys: a.Plant, KT: a.KT, KE: a.KE,
		X0: a.X0, JStar: a.JStar, R: a.R}
}

// Dimension executes the engine's two stages: (optional) switching-stability
// certification plus profile computation fanned out per application, then
// verified first-fit slot mapping with memoized admission.
func (d *Dimensioner) Dimension() (*Allocation, error) {
	if len(d.Apps) == 0 {
		return nil, errors.New("core: no applications")
	}
	alloc := &Allocation{}
	var err error
	alloc.Profiles, alloc.Stability, err = d.profileStage(context.Background())
	if err != nil {
		return nil, err
	}
	cache := d.Opts.Cache
	if cache == nil {
		cache = mapping.NewCache()
	}
	res, err := mapping.FirstFitCached(alloc.Profiles, d.verifyFunc(), cache)
	if err != nil {
		return nil, err
	}
	alloc.Slots = res.Slots
	alloc.Verifications = res.Verifications
	alloc.CacheHits = res.CacheHits
	alloc.CacheMisses = res.CacheMisses
	return alloc, nil
}

// verifyFunc builds the admission verifier from the options — the
// counterexample-replay prefilter, then the exact search — threading the
// engine's worker budget into the BFS unless the caller pinned it.
func (d *Dimensioner) verifyFunc() mapping.VerifyFunc {
	if d.Opts.AdmitFunc != nil {
		return d.Opts.AdmitFunc
	}
	cfg := d.Opts.Verify
	cfg.NondetTies = true
	cfg.Policy = d.Opts.Policy
	if cfg.Workers == 0 {
		cfg.Workers = d.Opts.Workers
	}
	// A replayed counterexample settles a "no" in microseconds. Not under a
	// disturbance bound: that model under-approximates, and a replayed
	// schedule may use more disturbance instances than it allows.
	refute := cfg.MaxDisturbances == 0
	return func(ps []*switching.Profile) (bool, error) {
		if refute && verify.Refute(ps, cfg.Policy) {
			return false, nil
		}
		res, err := verify.Slot(ps, cfg)
		if err != nil {
			return false, err
		}
		return res.Schedulable, nil
	}
}

// VerifySlotSharing checks whether the given applications can share one TT
// slot, returning the detailed verification result.
func VerifySlotSharing(apps []App, opts Options) (verify.Result, []*switching.Profile, error) {
	var ps []*switching.Profile
	for _, a := range apps {
		p, err := Profile(a, opts.Switching)
		if err != nil {
			return verify.Result{}, nil, err
		}
		ps = append(ps, p)
	}
	cfg := opts.Verify
	cfg.NondetTies = true
	cfg.Policy = opts.Policy
	if cfg.Workers == 0 {
		cfg.Workers = opts.Workers
	}
	res, err := verify.Slot(ps, cfg)
	return res, ps, err
}
