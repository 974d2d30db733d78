package verify

// Engine telemetry. The registry handles live at package level — one
// registration at init, lock-free atomic updates after — and every update
// sits at run or level granularity, never per state: the expansion core's
// zero-allocation contract (alloc_test.go) and the ~80 allocs/op S1 gate
// hold with telemetry enabled because the hot loop is untouched.

import (
	"errors"
	"fmt"
	"sync"

	"tightcps/internal/obs"
)

var (
	obsRuns = obs.NewCounter("tightcps_verify_runs_total",
		"Completed verification runs (coordinator side: local searches and distributed runs both count once).")
	obsStates = obs.NewCounter("tightcps_verify_states_total",
		"States visited across completed and budget-exceeded verification runs.")
	obsTransitions = obs.NewCounter("tightcps_verify_transitions_total",
		"Transitions generated across completed and budget-exceeded verification runs.")
	obsLevels = obs.NewCounter("tightcps_verify_levels_total",
		"BFS levels expanded by local search drivers.")
	obsViolations = obs.NewCounter("tightcps_verify_violations_total",
		"Completed runs whose verdict was a deadline violation.")
	obsErrors = obs.NewCounter("tightcps_verify_errors_total",
		"Verification runs that ended in an error (budget exhaustion, encoding limits, backend failures).")
	obsBudgetExceeded = obs.NewCounter("tightcps_verify_budget_exceeded_total",
		"Verification runs that stopped at Config.MaxStates (ErrTooLarge); their explored states and transitions are in the states/transitions totals.")
	obsActive = obs.NewGauge("tightcps_verify_active_runs",
		"Verification runs currently executing.")
)

// ContentionStats and Contention are a zero-returning shim: nothing feeds
// them any more, and they go with the rows verify.cas_retries / verify.steals
// in the next [benchmark] PR.
type ContentionStats struct {
	CASRetries uint64
	ProbeSteps uint64
	Overflows  uint64
	Steals     uint64
}

// Contention returns zeros (see ContentionStats).
func Contention() ContentionStats { return ContentionStats{} }

// linkCounters are the labeled wire-volume handles of one directed mesh
// link. They are cached in wireCounters below because the registry lookup
// renders labels (and allocates) on every call: a 4-node mesh has 12
// directed links, and re-registering them per run made the mesh's per-op
// allocations grow with cluster size — exactly what the bench alloc-trend
// gate exists to catch. With the cache, repeat runs on a standing cluster
// touch only a map read and two atomics per link.
type linkCounters struct {
	bytes  *obs.Counter
	states *obs.Counter
}

var (
	linkMu     sync.Mutex
	linkSeries = map[uint64]linkCounters{}
)

// wireCounters finds (or registers once) the counter handles for the
// from→to link.
func wireCounters(from, to int) linkCounters {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	linkMu.Lock()
	defer linkMu.Unlock()
	c, ok := linkSeries[key]
	if !ok {
		lbl := fmt.Sprintf("%d->%d", from, to)
		c = linkCounters{
			bytes: obs.NewCounter("tightcps_verify_wire_bytes_total",
				"Bytes shipped over each directed worker-to-worker mesh link (coordinator view).",
				"link", lbl),
			states: obs.NewCounter("tightcps_verify_wire_states_total",
				"States shipped over each directed worker-to-worker mesh link (coordinator view).",
				"link", lbl),
		}
		linkSeries[key] = c
	}
	return c
}

// recordRun folds one completed run into the engine metrics and finishes
// the run trace, if one rides the config. Runs once per Run call — the
// only allocations (first-sighting link registration, trace finalization)
// are per-run and only on distributed/traced runs.
func (v *Verifier) recordRun(res Result, err error) {
	if err != nil {
		obsErrors.Inc()
		// A budget-exceeded run did real work — its levels are already in
		// obsLevels — so the states it explored count too.
		if errors.Is(err, ErrTooLarge) {
			obsBudgetExceeded.Inc()
			obsStates.Add(uint64(res.States))
			obsTransitions.Add(uint64(res.Transitions))
		}
		return
	}
	obsRuns.Inc()
	obsStates.Add(uint64(res.States))
	obsTransitions.Add(uint64(res.Transitions))
	if !res.Schedulable {
		obsViolations.Inc()
	}
	for _, l := range res.Wire.Links {
		c := wireCounters(l.From, l.To)
		c.bytes.Add(uint64(l.Bytes))
		c.states.Add(uint64(l.States))
	}
	tr := v.cfg.RunTrace
	if tr == nil {
		return
	}
	tr.SetWire(res.Wire.RoutedStates, res.Wire.FilteredStates, res.Wire.RawBytes, res.Wire.WireBytes)
	for _, l := range res.Wire.Links {
		tr.AddLink(l.From, l.To, l.States, l.Bytes)
	}
	names := make([]string, len(v.profs))
	for i, p := range v.profs {
		names[i] = p.Name
	}
	violator := ""
	if !res.Schedulable && res.Violator >= 0 && res.Violator < len(names) {
		violator = names[res.Violator]
	}
	tr.SetSlot(names, violator)
	tr.SetResult(res.Schedulable, res.States, res.Transitions, res.Depth)
}
