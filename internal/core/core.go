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

// Options tunes the dimensioning flow. Profiles are computed with the
// zero switching.Config.
type Options struct {
	Policy sched.PreemptionPolicy // runtime policy to verify
	// CheckSwitchingStability requires a common quadratic Lyapunov function
	// for every application's (KT, KE) pair before profiling, as Sec. 3
	// recommends. Applications failing the check abort the run.
	CheckSwitchingStability bool
	// Workers is the engine's concurrency budget. During profiling it
	// bounds the per-application fan-out; during mapping it sizes the
	// verifier's lanes. 0 uses GOMAXPROCS; 1 forces a fully serial run.
	// The allocation is identical for every worker count.
	Workers int
	// Cache memoizes slot-admission verdicts. Nil uses a fresh per-call
	// cache (which still deduplicates within the run); supplying one reuses
	// verdicts across Dimension calls. Dimension refuses a cache salted for
	// another admission than Admission's (mapping.ErrCacheConfig); the
	// unsalted NewCache is accepted, so do not share one between Options
	// that verify under different Policy.
	Cache *mapping.Cache
	// AdmitFunc, when non-nil, replaces the in-process slot-sharing
	// verification: the dimensioning loop sends every admission question
	// through it instead of verify.Slot. This is the seam the admission
	// service's client mode plugs into (admit.Client.VerifyFunc), so a
	// dimensioning run shares the service's fleet-wide coalescing and
	// persistent cache. The caller must configure it to verify under the
	// semantics Options would otherwise use (Admission().Config()) — the
	// engine cannot inspect a remote service's config.
	AdmitFunc mapping.VerifyFunc
}

// Allocation is the dimensioning result: the first-fit mapping's Result
// (slots as indices into Apps/Profiles, admission checks and this run's
// cache traffic) over the applications' profiles.
type Allocation struct {
	Profiles []*switching.Profile
	mapping.Result
	// Stability holds the CQLF results when the stability check ran.
	Stability []control.CQLFResult
}

// SlotNames renders the allocation with application names.
func (a *Allocation) SlotNames() [][]string { return a.Result.SlotNames(a.Profiles) }

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
	adm := d.Opts.Admission()
	if err := adm.CheckCache(d.Opts.Cache); err != nil {
		return nil, err
	}
	alloc := &Allocation{}
	var err error
	alloc.Profiles, alloc.Stability, err = d.profileStage(context.Background())
	if err != nil {
		return nil, err
	}
	vf, cache := d.Opts.AdmitFunc, d.Opts.Cache
	if vf == nil {
		vf = adm.Verify
	}
	if cache == nil {
		cache = mapping.NewCache()
	}
	res, err := mapping.FirstFitCached(alloc.Profiles, vf, cache)
	if err != nil {
		return nil, err
	}
	alloc.Result = *res
	return alloc, nil
}

// Admission returns the slot admission the options verify with: the
// default search under Policy, on Workers lanes.
func (o Options) Admission() *mapping.Admission {
	return mapping.NewAdmission(verify.Config{Policy: o.Policy, Workers: o.Workers}, 0)
}

// VerifySlotSharing checks whether the given applications can share one TT
// slot, returning the detailed verification result.
func VerifySlotSharing(apps []App, opts Options) (verify.Result, []*switching.Profile, error) {
	var ps []*switching.Profile
	for _, a := range apps {
		p, err := Profile(a, switching.Config{})
		if err != nil {
			return verify.Result{}, nil, err
		}
		ps = append(ps, p)
	}
	res, err := verify.Slot(ps, opts.Admission().Config())
	return res, ps, err
}
