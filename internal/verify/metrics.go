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
		"BFS levels expanded (Result.Depth + 1) across completed and budget-exceeded verification runs, local and distributed.")
	obsViolations = obs.NewCounter("tightcps_verify_violations_total",
		"Completed runs whose verdict was a deadline violation.")
	obsErrors = obs.NewCounter("tightcps_verify_errors_total",
		"Verification runs that ended in an error (budget exhaustion, encoding limits, backend failures).")
	obsBudgetExceeded = obs.NewCounter("tightcps_verify_budget_exceeded_total",
		"Verification runs that stopped at Config.MaxStates (ErrTooLarge); their explored states and transitions are in the states/transitions totals.")
	obsActive = obs.NewGauge("tightcps_verify_active_runs",
		"Verification runs currently executing.")
	obsTableBytes = obs.NewGauge("tightcps_verify_table_bytes",
		"Bytes of visited-set tables held off the Go heap (tables of 2 MiB and up; a growing table's old pieces until the rehash hands them back); back to its value before a search once the search ends.")
)

// ContentionStats and Contention are a zero-returning shim: nothing feeds
// them any more, and they go with the rows verify.cas_retries / verify.steals
// in the next [benchmark] PR.
type ContentionStats struct {
	CASRetries uint64
	Steals     uint64
}

// Contention returns zeros (see ContentionStats).
func Contention() ContentionStats { return ContentionStats{} }

// linkSeries caches the labeled wire-volume counter of each directed mesh
// link, because the registry lookup renders labels (and allocates) on
// every call: a 4-node mesh has 12 directed links, and re-registering them
// per run made the mesh's per-op allocations grow with cluster size —
// exactly what the bench alloc-trend gate exists to catch. With the cache,
// repeat runs on a standing cluster touch only a map read and an atomic
// per link.
var (
	linkMu     sync.Mutex
	linkSeries = map[uint64]*obs.Counter{}
)

// wireCounter finds (or registers once) the counter of the from→to link.
func wireCounter(from, to int) *obs.Counter {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	linkMu.Lock()
	defer linkMu.Unlock()
	c, ok := linkSeries[key]
	if !ok {
		c = obs.NewCounter("tightcps_verify_wire_states_total",
			"States shipped over each directed worker-to-worker mesh link (coordinator view).",
			"link", fmt.Sprintf("%d->%d", from, to))
		linkSeries[key] = c
	}
	return c
}

// recordRun is the one place a run turns into telemetry: it folds the
// result into the engine metrics and writes the run trace, if one rides
// the config, from the result alone. Runs once per Run call — the only
// allocations (first-sighting link registration, the trace) are per-run
// and only on distributed/traced runs.
func (v *Verifier) recordRun(res Result, err error) {
	switch {
	case errors.Is(err, ErrTooLarge):
		// A budget-exceeded run did real work: its levels, states and
		// transitions count too.
		obsErrors.Inc()
		obsBudgetExceeded.Inc()
	case err != nil:
		obsErrors.Inc()
		return
	default:
		obsRuns.Inc()
		if !res.Schedulable {
			obsViolations.Inc()
		}
		for _, l := range res.Wire.Links {
			wireCounter(l.From, l.To).Add(uint64(l.States))
		}
	}
	obsStates.Add(uint64(res.States))
	obsTransitions.Add(uint64(res.Transitions))
	obsLevels.Add(uint64(res.Depth + 1))
	tr := v.cfg.RunTrace
	if tr == nil {
		return
	}
	tr.SetLevels(res.Levels)
	if err != nil {
		return
	}
	tr.SetWire(res.Wire.RoutedStates)
	for _, l := range res.Wire.Links {
		tr.AddLink(l.From, l.To, l.States)
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
