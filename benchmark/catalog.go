package main

import "slices"

// The metric catalog: every number the benchmark prints, by name, with its
// unit, direction, regression bound and the workloads that measure it.
// BENCHMARK.json is generated from it (-manifest) and bench_test.go checks
// the two agree.

const (
	wlCaseStudy  = "casestudy"
	wlSlotVerify = "slot-verify"
	wlFleetSweep = "fleet-sweep"
	wlAdmitServe = "admit-serve"
)

// workloadInfo is one BENCHMARK.json workload entry plus its runner.
type workloadInfo struct {
	Name string
	Why  string
	run  func(*env) error
}

var workloads = []workloadInfo{
	{wlCaseStudy, "the paper's six apps to two slots through core.Dimension: switching.Compute is ~85% of it and verify ~13%, so a profile-sweep gain must show here and an engine gain must not", runCaseStudy},
	{wlSlotVerify, "verify.Slot on pre-computed profiles, three engines and both encodings: verify is ~100% and switching 0%, so profile work is bypassed and engine and visited-set work is exercised", runSlotVerify},
	{wlFleetSweep, "the experiments -synthetic pipeline on a 100-app fleet: many small budgeted symmetric checks behind the admission cache, then the same mapping warm; the only workload where mapping and cache work", runFleetSweep},
	{wlAdmitServe, "POST /v1/admit over real HTTP: cold verdicts are all verify, cached hits are all admit+HTTP and no verify, 8-way coalesced submits share one backend run", runAdmitServe},
}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which the metric may worsen
	// before -compare (and, for end-to-end metrics, the driver) calls it a
	// regression. 0 = reported, never gated.
	Bound float64
	// On lists the workloads that measure the metric; nil means every one.
	On []string
	// Traced metrics are measured only in a traced run (-trace 1).
	Traced bool
	What   string
}

func (m metricDef) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

// endToEnd are the metrics every workload reports from its untraced run.
// What cold_ms and round_s time per workload is in README.md, and so is the
// run-to-run spread on the recording host that these bounds are sized for.
var endToEnd = []metricDef{
	{Name: "cold_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median latency of the workload's headline request, answered from nothing on one core"},
	{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "median wall time of one closed-loop round over every op kind of the workload"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "process start to first timed op: inputs, profile memo, cluster, server, one warm-up round"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		What: "VmHWM of the workload's process"},
}

var (
	onCase  = []string{wlCaseStudy}
	onSlot  = []string{wlSlotVerify}
	onSweep = []string{wlFleetSweep}
	onAdmit = []string{wlAdmitServe}
)

// perLayer are the per-op rows (op.*, measured untraced, gated by -compare)
// and the per-layer rows (measured in the traced run, never gated).
var perLayer = []metricDef{
	// One row per op kind — the numbers a user of each entry point sees.
	{Name: "op.dimension_s", Unit: "s", Better: "lower", Bound: 0.10, On: onCase, What: "apps to allocation, Workers: 1"},
	{Name: "op.dimension_par_s", Unit: "s", Better: "lower", Bound: 0.10, On: onCase, What: "apps to allocation, Workers: 0"},
	{Name: "op.s1_seq_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onSlot, What: "S1 verdict, sequential"},
	{Name: "op.s1_par_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onSlot, What: "S1 verdict, in-process lanes"},
	{Name: "op.s1_mesh_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onSlot, What: "S1 verdict, 2-node loopback mesh"},
	{Name: "op.wide_seq_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onSlot, What: "W7 verdict, sequential wide encoding"},
	{Name: "op.violation_seq_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onSlot, What: "V5 time to counterexample"},
	{Name: "op.sweep_cold_s", Unit: "s", Better: "lower", Bound: 0.10, On: onSweep, What: "generate, profile, first-fit, DP on an empty cache"},
	{Name: "op.sweep_warm_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: onSweep, What: "first-fit + DP on the warm cache, per repetition"},
	{Name: "op.admit_cold_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onAdmit, What: "S1 by name, fresh service, over HTTP"},
	{Name: "op.admit_hit_p50_us", Unit: "us", Better: "lower", Bound: 0.15, On: onAdmit, What: "cached verdict over HTTP, p50"},
	{Name: "op.admit_hit_rps", Unit: "1/s", Better: "higher", Bound: 0.15, On: onAdmit, What: "cached verdicts per second, median batch"},
	{Name: "op.admit_coalesced_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onAdmit, What: "8 permuted submits to all 8 answered"},

	// control
	{Name: "control.cqlf_s", Unit: "s", Better: "lower", On: onCase, Traced: true, What: "control.SwitchingStable over every app of one op"},

	// switching
	{Name: "switching.compute_s", Unit: "s", Better: "lower", On: onCase, Traced: true, What: "switching.Compute summed over the apps of one op"},
	{Name: "switching.compute_max_app_s", Unit: "s", Better: "lower", On: onCase, Traced: true, What: "slowest app; bounds the parallel run"},
	{Name: "switching.tw_points", Unit: "count", Better: "lower", On: onCase, Traced: true, What: "sum of T*w+1 over the apps"},
	{Name: "switching.ms_per_tw_point", Unit: "ms", Better: "lower", On: onCase, Traced: true, What: "compute_s per wait-time grid point"},
	{Name: "switching.archetype_compute_s", Unit: "s", Better: "lower", On: onSweep, Traced: true, What: "one Compute(Horizon: 800) per archetype, summed"},

	// verify: benchmark-side BFS over S1 and W7 through the Expander seam
	{Name: "verify.expand_ns_per_state", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "SuccessorsHashedInto per expanded S1 state"},
	{Name: "verify.insert_ns_per_succ", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "StateSet.AddHashed per S1 successor"},
	{Name: "verify.dup_ratio", Unit: "ratio", Better: "lower", On: onSlot, Traced: true, What: "S1 successors already visited / successors"},
	{Name: "verify.transitions_per_state", Unit: "ratio", Better: "lower", On: onSlot, Traced: true, What: "S1 successors per expanded state"},
	{Name: "verify.wide_expand_ns_per_state", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "SuccessorsHashedInto per expanded W7 state"},
	{Name: "verify.wide_insert_ns_per_succ", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "StateSet.AddHashed per W7 successor"},
	{Name: "verify.set_miss_ns", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "insert of an absent S1 state into a reserved set"},
	{Name: "verify.set_hit_ns", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "insert of a present S1 state"},
	{Name: "verify.set_grow_ns", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "insert of an absent S1 state into an unreserved set"},
	{Name: "verify.wideset_miss_ns", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "insert of an absent W7 state into a reserved set"},
	{Name: "verify.wideset_hit_ns", Unit: "ns", Better: "lower", On: onSlot, Traced: true, What: "insert of a present W7 state"},
	// verify: from verify.Slot calls
	{Name: "verify.s1_seq_states_per_s", Unit: "1/s", Better: "higher", On: onSlot, What: "S1 states / sequential verdict time"},
	{Name: "verify.s1_par_states_per_s", Unit: "1/s", Better: "higher", On: onSlot, What: "S1 states / in-process lanes verdict time"},
	{Name: "verify.s1_allocs_per_op", Unit: "count", Better: "lower", On: onSlot, Traced: true, What: "mallocs of one sequential S1 verdict"},
	{Name: "verify.s1_bytes_per_op", Unit: "B", Better: "lower", On: onSlot, Traced: true, What: "bytes allocated by one sequential S1 verdict"},
	{Name: "verify.cas_retries", Unit: "count", Better: "lower", On: onSlot, Traced: true, What: "lost CAS claims of one in-process lanes S1 verdict"},
	{Name: "verify.steals", Unit: "count", Better: "lower", On: onSlot, Traced: true, What: "stolen frontier chunks of one in-process lanes S1 verdict"},
	{Name: "verify.levels", Unit: "count", Better: "lower", On: onSlot, Traced: true, What: "BFS levels of S1 (Config.RunTrace)"},
	{Name: "verify.max_level_states", Unit: "count", Better: "lower", On: onSlot, Traced: true, What: "widest S1 level"},
	{Name: "verify.small_verdict_us", Unit: "us", Better: "lower", On: onSlot, What: "S2 verdict: the fixed per-job cost"},
	{Name: "verify.sym_verdict_ms", Unit: "ms", Better: "lower", On: onSlot, What: "F9 verdict under the symmetry quotient"},
	// verify: inside the pipelines
	{Name: "verify.slot_s", Unit: "s", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep, wlAdmitServe}, Traced: true, What: "verify.Slot summed over one op"},
	{Name: "verify.calls", Unit: "count", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep, wlAdmitServe}, Traced: true, What: "verify.Slot calls of one op"},
	{Name: "verify.states", Unit: "count", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "states visited by one op"},
	{Name: "verify.refute_s", Unit: "s", Better: "lower", On: onSweep, Traced: true, What: "verify.Refute prefilter summed over one sweep"},
	{Name: "verify.refute_rejects", Unit: "count", Better: "higher", On: onSweep, Traced: true, What: "candidates the prefilter rejected"},
	{Name: "verify.budget_rejects", Unit: "count", Better: "lower", On: onSweep, Traced: true, What: "candidates rejected for busting MaxStates"},
	{Name: "verify.budget_wasted_states", Unit: "count", Better: "lower", On: onSweep, Traced: true, What: "states visited by budget-busted checks"},

	// dverify
	{Name: "dverify.routed_states", Unit: "count", Better: "lower", On: onSlot, What: "S1 states shipped between the 2 loopback nodes"},
	{Name: "dverify.filtered_states", Unit: "count", Better: "higher", On: onSlot, What: "S1 states the sender-side filters suppressed"},
	{Name: "dverify.raw_bytes", Unit: "B", Better: "lower", On: onSlot, What: "fixed-width cost of routed+filtered states"},
	{Name: "dverify.wire_bytes", Unit: "B", Better: "lower", On: onSlot, What: "bytes shipped over the loopback links"},
	{Name: "dverify.mesh_small_verdict_us", Unit: "us", Better: "lower", On: onSlot, Traced: true, What: "S2 through the standing mesh: per-job fixed cost"},
	{Name: "dverify.cluster_init_ms", Unit: "ms", Better: "lower", On: onSlot, Traced: true, What: "dverify.Loopback(2) to its first S2 verdict"},
	{Name: "dverify.tcp2_s1_ms", Unit: "ms", Better: "lower", On: onSlot, Traced: true, What: "S1 on an in-process 2-node TCP mesh"},
	{Name: "dverify.tcp2_wire_bytes", Unit: "B", Better: "lower", On: onSlot, Traced: true, What: "bytes the TCP mesh shipped for S1"},
	{Name: "dverify.tcp2_saved_fraction", Unit: "ratio", Better: "higher", On: onSlot, Traced: true, What: "1 - wire/raw on the TCP mesh"},

	// mapping
	{Name: "mapping.firstfit_self_s", Unit: "s", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "FirstFitCached span minus its admission spans"},
	{Name: "mapping.optimal_self_s", Unit: "s", Better: "lower", On: onSweep, Traced: true, What: "OptimalCached span minus its admission spans"},
	{Name: "mapping.checks", Unit: "count", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "admission checks of one op"},
	{Name: "mapping.cache_hits", Unit: "count", Better: "higher", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "checks served by the cache"},
	{Name: "mapping.cache_misses", Unit: "count", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "checks that reached the admission function"},
	{Name: "mapping.slots", Unit: "count", Better: "lower", On: []string{wlCaseStudy, wlFleetSweep}, Traced: true, What: "slots of the first-fit allocation"},
	{Name: "mapping.warm_ns_per_check", Unit: "ns", Better: "lower", On: onSweep, Traced: true, What: "warm repetition time per admission check"},
	{Name: "mapping.cache_entries", Unit: "count", Better: "lower", On: onSweep, Traced: true, What: "verdicts in the cache after one sweep"},
	{Name: "mapping.cache_save_ms", Unit: "ms", Better: "lower", On: onSweep, Traced: true, What: "Cache.Save into a bytes.Buffer"},
	{Name: "mapping.cache_load_ms", Unit: "ms", Better: "lower", On: onSweep, Traced: true, What: "Cache.Load from a bytes.Buffer"},

	// admit
	{Name: "admit.backend_s", Unit: "s", Better: "lower", On: onAdmit, Traced: true, What: "Options.Backend summed over one cold round"},
	{Name: "admit.backend_runs", Unit: "count", Better: "lower", On: onAdmit, Traced: true, What: "Options.Backend calls of one cold round"},
	{Name: "admit.cold_overhead_ms", Unit: "ms", Better: "lower", On: onAdmit, Traced: true, What: "cold S1 latency minus its backend span"},
	{Name: "admit.direct_hit_us", Unit: "us", Better: "lower", On: onAdmit, Traced: true, What: "Service.Admit called directly on a cached key, p50"},
	{Name: "admit.http_self_us", Unit: "us", Better: "lower", On: onAdmit, Traced: true, What: "HTTP hit p50 minus direct hit p50"},
	{Name: "admit.hit_p99_us", Unit: "us", Better: "lower", On: onAdmit, What: "cached verdict over HTTP, p99"},
	{Name: "admit.inline_cold_ms", Unit: "ms", Better: "lower", On: onAdmit, What: "F9 as inline JSON profiles + symmetry, cold"},
	{Name: "admit.queue_wait_ms", Unit: "ms", Better: "lower", On: onAdmit, Traced: true, What: "mean queue wait of the run's leader calls"},
	{Name: "admit.coalesced", Unit: "count", Better: "higher", On: onAdmit, What: "submits parked on the leader in one coalesced round"},

	// obs
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", On: onSlot, Traced: true, What: "S1 sequential with vs without Config.RunTrace"},
	{Name: "obs.metricsz_scrape_us", Unit: "us", Better: "lower", On: onAdmit, Traced: true, What: "GET /metricsz, p50"},
	{Name: "obs.metricsz_bytes", Unit: "B", Better: "lower", On: onAdmit, Traced: true, What: "size of one /metricsz scrape"},

	// plants, core, the independent oracles
	{Name: "plants.synthetic_ms", Unit: "ms", Better: "lower", On: onSweep, Traced: true, What: "plants.Synthetic for the fleet"},
	{Name: "core.stage_gap_s", Unit: "s", Better: "lower", On: onCase, Traced: true, What: "untraced Dimension() median minus the traced stage spans"},
	{Name: "ta.check_ms", Unit: "ms", Better: "lower", On: onSlot, What: "verify.CheckNetwork on S2 (internal/ta oracle)"},
	{Name: "sim.cosim_ms", Unit: "ms", Better: "lower", On: onSlot, What: "internal/sim co-simulation of S1"},

	// the benchmark's own tracing
	{Name: "bench.attributed_pct", Unit: "%", Better: "higher", Traced: true, What: "share of the headline op covered by named layer spans"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Traced: true, What: "traced vs untraced round median"},
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 18

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWl     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		// The package is named by import path, not as ".", so that no
		// argument reads as a path outside Paths.
		Command:    []string{"go", "run", "-C", "benchmark", "tightcps/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
