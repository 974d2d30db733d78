package admit

// Backend resilience. The admission service fronts a distributed
// cluster whose workers can die mid-run; with fault tolerance on the
// cluster side (dverify.FaultTolerantRunner) most deaths recover
// transparently, and this layer covers what remains: transient whole-run
// failures retry with exponential backoff and jitter, a run of
// consecutive failures opens a circuit breaker so a dead cluster stops
// eating full search budgets per submit, and an optional local fallback
// keeps answering from the in-process engine while the cluster is down —
// a degraded mode (local MaxStates semantics, one machine's throughput)
// that still produces sound verdicts.
//
// Everything here defaults OFF: a plain Options{Backend: ...} service
// reports backend failures as 502 exactly as before, which the fault
// tests pin.

import (
	"errors"
	"math/rand"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// errBreakerOpen fails a submit while the circuit is open and no local
// fallback is configured; classified 503 so clients back off.
var errBreakerOpen = errors.New("admit: verification backend circuit open (cluster failing); retry after the cooldown")

const (
	// retryCap bounds one backoff wait regardless of attempt count.
	retryCap = 5 * time.Second
	// breakerCooldown is how long an open circuit stays open.
	breakerCooldown = 30 * time.Second
)

// retryBackoff is the wait before the first retry. Tests shrink it.
var retryBackoff = 100 * time.Millisecond

// retryable reports whether a backend error class is safe and useful to
// retry. Verification is idempotent — every attempt starts with a fresh
// KindInit that resets the workers, so a retry can never observe a
// half-applied run. What must not retry are the deterministic classes:
// ErrTooLarge (budget) and ErrEncoding (profile shape) are properties of
// the request itself, and a retry would re-run an expensive search for
// the same answer.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, verify.ErrTooLarge) && !errors.Is(err, verify.ErrEncoding)
}

// retryDelay is the wait before retry attempt n (1-based): retryBackoff
// doubles per attempt, capped, with half-width jitter so a fleet of
// waiters does not re-converge on the cluster in lockstep.
func retryDelay(attempt int) time.Duration {
	d := retryBackoff
	for i := 1; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// verify dispatches to the attached backend or the local engine — through
// verify.Slot either way, so every admission verdict passes the engine's
// single recording point (run counters, trace finalization) exactly like
// a CLI-driven run. With a backend attached, this is also the resilience
// boundary: retries, the circuit breaker and the local fallback all
// happen here, invisible to the caching and coalescing layers above.
func (s *Service) verify(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	if s.opts.Backend == nil {
		return verify.Slot(ps, cfg)
	}
	if s.breakerOpen() {
		if s.opts.LocalFallback {
			return s.verifyLocal(ps, cfg, "breaker open")
		}
		return verify.Result{}, errBreakerOpen
	}
	res, err := s.verifyBackend(ps, cfg)
	s.breakerNote(err)
	if retryable(err) && s.opts.LocalFallback {
		return s.verifyLocal(ps, cfg, "retries exhausted")
	}
	return res, err
}

// verifyBackend runs one cluster verification, retrying transient
// failures per the retry policy.
func (s *Service) verifyBackend(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	cfg.Distributed = s.opts.Backend
	res, err := verify.Slot(ps, cfg)
	for attempt := 1; attempt <= s.opts.RetryAttempts && retryable(err); attempt++ {
		d := retryDelay(attempt)
		s.opts.Logf("admit: backend run %s failed (retry %d/%d in %v): %v",
			cfg.RunID, attempt, s.opts.RetryAttempts, d, err)
		obsBackendRetries.Inc()
		s.mu.Lock()
		s.stats.Retries++
		s.mu.Unlock()
		time.Sleep(d)
		res, err = verify.Slot(ps, cfg)
	}
	return res, err
}

// verifyLocal is the degraded path: the in-process engine answers while
// the cluster cannot. MaxStates reverts to single-process semantics, so
// a budget-capped question may hit its (sound) ErrTooLarge boundary
// earlier than the cluster would.
func (s *Service) verifyLocal(ps []*switching.Profile, cfg verify.Config, why string) (verify.Result, error) {
	s.opts.Logf("admit: %s: run %s verified on the local engine", why, cfg.RunID)
	obsLocalFallbacks.Inc()
	s.mu.Lock()
	s.stats.LocalFallbacks++
	s.mu.Unlock()
	cfg.Distributed = nil
	return verify.Slot(ps, cfg)
}

// breakerOpen reports whether the circuit is currently open.
func (s *Service) breakerOpen() bool {
	if s.opts.BreakerThreshold <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Now().Before(s.breakerUntil)
}

// breakerNote feeds one backend outcome into the breaker: a success (or
// a deterministic, non-backend failure) closes the window, a transient
// failure with retries exhausted counts toward the threshold.
func (s *Service) breakerNote(err error) {
	if s.opts.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !retryable(err) {
		s.breakerFails = 0
		return
	}
	s.breakerFails++
	if s.breakerFails >= s.opts.BreakerThreshold {
		s.breakerUntil = time.Now().Add(breakerCooldown)
		s.breakerFails = 0
		s.stats.BreakerTrips++
		obsBreakerTrips.Inc()
		s.opts.Logf("admit: circuit breaker open for %v after %d consecutive backend failures",
			breakerCooldown, s.opts.BreakerThreshold)
	}
}
