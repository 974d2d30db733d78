package dverify

// Worker-side telemetry. A verifyd daemon is a mesh worker, not a
// coordinator — the engine counters of internal/verify never move there —
// so the worker plane exports its own series, folded in once per session
// at shutdown (never per state, never per poll).

import "tightcps/internal/obs"

var (
	obsSessions = obs.NewCounter("tightcps_dverify_sessions_total",
		"Mesh worker sessions completed on this process (one per Init, counted at teardown).")
	obsFresh = obs.NewCounter("tightcps_dverify_fresh_states_total",
		"States committed into this worker's visited partitions across completed sessions.")
	obsRoutedStates = obs.NewCounter("tightcps_dverify_routed_states_total",
		"Foreign successors this worker routed onto its mesh links across completed sessions.")
	// Coordinator-side recovery counters: a coordinator embedded in an
	// admission service (or CLI) exposes recoveries through the same
	// registry its /metricsz serves.
	obsRecoveries = obs.NewCounter("tightcps_dverify_recoveries_total",
		"Worker-death recoveries (restarts of a distributed run on the survivors) on this process.")
)
