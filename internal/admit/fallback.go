package admit

// Backend resilience. The admission service fronts a distributed cluster
// whose workers can die mid-run. The cluster's hook (dverify.Runner)
// recovers every death it can: the dead worker leaves the cluster and the
// run restarts on the survivors with the same verdict. What reaches this
// layer is the failure the cluster cannot recover — every worker dead — and
// the optional local fallback answers it from the in-process engine: a
// degraded mode (one machine's memory and throughput) that produces the
// cluster's verdicts, budget busts included. A dead cluster fails a run without I/O,
// so the fallback costs no cluster time. Off by default: a plain
// Options{Backend: ...} service reports backend failures as 502.

import (
	"errors"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// deterministic reports whether a backend error is a property of the
// request itself — its budget (ErrTooLarge) or its profile shape
// (ErrEncoding) — which every engine answers the same way.
func deterministic(err error) bool {
	return errors.Is(err, verify.ErrTooLarge) || errors.Is(err, verify.ErrEncoding)
}

// verify dispatches to the attached backend or the local engine — through
// verify.Slot either way, so every admission verdict passes the engine's
// single recording point (run counters, trace finalization) exactly like
// a CLI-driven run. With a backend attached, a failure that is not
// deterministic is served by the local engine when LocalFallback is set.
func (s *Service) verify(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	if s.opts.Backend == nil {
		return verify.Slot(ps, cfg)
	}
	cfg.Distributed = s.opts.Backend
	res, err := verify.Slot(ps, cfg)
	if err == nil || deterministic(err) || !s.opts.LocalFallback {
		return res, err
	}
	s.opts.Logf("admit: backend run %s failed (%v): verified on the local engine", cfg.RunID, err)
	obsLocalFallbacks.Inc()
	s.mu.Lock()
	s.stats.LocalFallbacks++
	s.mu.Unlock()
	cfg.Distributed = nil
	return verify.Slot(ps, cfg)
}
