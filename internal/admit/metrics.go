package admit

// Service telemetry. The histograms close the ROADMAP item "per-config
// latency histograms in /statsz": end-to-end admission latency is labeled
// by the config salt — bounded cardinality, one series per distinct
// verification config — never by the profile-set fingerprint, which
// grows with every distinct profile set. All observations are per request
// or per backend run; nothing here sits on the engine's hot path.

import (
	"fmt"
	"time"

	"tightcps/internal/obs"
)

var (
	obsSubmissions = obs.NewCounter("tightcps_admit_submissions_total",
		"Admission questions received (sync and async submits, before caching and coalescing).")
	obsQueueWait = obs.NewHistogram("tightcps_admit_queue_wait_seconds",
		"Time a leader call spent in the bounded queue before a worker picked it up.", obs.DefBuckets)
	obsBackendRun = obs.NewHistogram("tightcps_admit_backend_seconds",
		"Backend verification duration, one observation per actual search (cache and warm hits excluded).", obs.DefBuckets)
	obsLocalFallbacks = obs.NewCounter("tightcps_admit_local_fallbacks_total",
		"Admission verdicts served by the in-process engine after the cluster failed.")
)

// latencyFor returns the end-to-end admission latency histogram for one
// config salt, registering it on first use (idempotent by name+label).
func latencyFor(cfgKey uint64) *obs.Histogram {
	return obs.NewHistogram("tightcps_admit_latency_seconds",
		"End-to-end admission latency per config fingerprint, cached and coalesced answers included.",
		obs.DefBuckets, "cfg", fmt.Sprintf("%016x", cfgKey))
}

// latency finds (caching the handle) the per-config latency histogram and
// records one request's elapsed time.
func (s *Service) observeLatency(cfgKey uint64, t0 time.Time) {
	s.mu.Lock()
	h, ok := s.lat[cfgKey]
	s.mu.Unlock()
	if !ok {
		h = latencyFor(cfgKey)
		s.mu.Lock()
		s.lat[cfgKey] = h
		s.mu.Unlock()
	}
	h.Observe(time.Since(t0).Seconds())
}

// TimingStats is the /statsz summary of one latency histogram; the full
// bucketed distribution lives in /metricsz.
type TimingStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
}

func timingOf(h *obs.Histogram) *TimingStats {
	n := h.Count()
	if n == 0 {
		return nil
	}
	return &TimingStats{Count: n, MeanMs: h.Sum() / float64(n) * 1000}
}
