package admit

// Backend-resilience tests: the retry policy (transient faults retried,
// deterministic classes never), the circuit breaker, the local-fallback
// degraded mode, and the client's capped Retry-After handling — all
// default-off, so these rigs opt in explicitly.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// flakyBackend fails its first n calls with a transient cluster error,
// then delegates to the local engine.
func flakyBackend(n int, calls *atomic.Int64) VerifyBackend {
	return func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		c := calls.Add(1)
		if c <= int64(n) {
			return verify.Result{}, fmt.Errorf("dverify: node 1: connection reset (injected fault %d)", c)
		}
		cfg.Distributed = nil
		return verify.Slot(ps, cfg)
	}
}

// shrink sets *p to v until the test ends. Call it before newRig: the
// rig drains its service first, so no worker reads *p as it is restored.
func shrink(t *testing.T, p *time.Duration, v time.Duration) {
	saved := *p
	*p = v
	t.Cleanup(func() { *p = saved })
}

func TestBackendRetryRecovers(t *testing.T) {
	var calls atomic.Int64
	shrink(t, &retryBackoff, time.Millisecond)
	r := newRig(t, backendCase{name: "flaky"}, func(o *Options) {
		o.Backend = flakyBackend(2, &calls)
		o.BackendDesc = "flaky (2 injected faults)"
		o.RetryAttempts = 3
	})
	ps := fleet(2, 5, 2, 4, 20)
	want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
	status, resp, verdict := r.submit(t, inlineReq(ps, verify.Spec{}))
	if status != http.StatusOK {
		t.Fatalf("retried submit: HTTP %d (%s)", status, resp.Error)
	}
	if !bytes.Equal(verdict, want) {
		t.Fatalf("verdict after retries diverges:\n got %s\nwant %s", verdict, want)
	}
	if calls.Load() != 3 {
		t.Errorf("backend called %d times, want 3 (2 faults + 1 success)", calls.Load())
	}
	st := r.svc.ServiceStats()
	if st.Retries != 2 || st.Verifications != 1 {
		t.Errorf("stats: retries=%d verifications=%d, want 2/1", st.Retries, st.Verifications)
	}
}

func TestBackendNeverRetriesDeterministicErrors(t *testing.T) {
	var calls atomic.Int64
	shrink(t, &retryBackoff, time.Millisecond)
	r := newRig(t, backendCase{name: "overbudget"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			calls.Add(1)
			return verify.Result{}, fmt.Errorf("state budget: %w", verify.ErrTooLarge)
		}
		o.BackendDesc = "budget-tripping"
		o.RetryAttempts = 3
	})
	status, resp, _ := r.submit(t, inlineReq(fleet(2, 5, 2, 4, 20), verify.Spec{}))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budget error: HTTP %d (%s), want 422", status, resp.Error)
	}
	if calls.Load() != 1 {
		t.Errorf("deterministic failure was retried: %d backend calls", calls.Load())
	}
}

func TestBreakerTripsToLocalFallback(t *testing.T) {
	var calls atomic.Int64
	r := newRig(t, backendCase{name: "dead"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			calls.Add(1)
			return verify.Result{}, errors.New("dverify: node 0: cluster unplugged (injected)")
		}
		o.BackendDesc = "permanently dead"
		o.BreakerThreshold = 2
		o.LocalFallback = true
	})
	// Three distinct questions: the first two hit the dead cluster (and
	// fall back locally), tripping the breaker; the third must be served
	// locally without touching the backend at all.
	for i, r20 := range []int{20, 25, 30} {
		ps := fleet(2, 5, 2, 4, r20)
		want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
		status, resp, verdict := r.submit(t, inlineReq(ps, verify.Spec{}))
		if status != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d (%s), want 200 via local fallback", i, status, resp.Error)
		}
		if !bytes.Equal(verdict, want) {
			t.Fatalf("submit %d: fallback verdict diverges:\n got %s\nwant %s", i, verdict, want)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("backend called %d times, want 2 (breaker open for the third)", calls.Load())
	}
	st := r.svc.ServiceStats()
	if st.LocalFallbacks != 3 || st.BreakerTrips != 1 {
		t.Errorf("stats: fallbacks=%d trips=%d, want 3/1", st.LocalFallbacks, st.BreakerTrips)
	}
}

func TestBreakerWithoutFallbackRefuses(t *testing.T) {
	r := newRig(t, backendCase{name: "dead"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			return verify.Result{}, errors.New("dverify: node 0: cluster unplugged (injected)")
		}
		o.BackendDesc = "permanently dead"
		o.BreakerThreshold = 1
	})
	status, resp, _ := r.submit(t, inlineReq(fleet(2, 5, 2, 4, 20), verify.Spec{}))
	if status != http.StatusBadGateway {
		t.Fatalf("first failure: HTTP %d (%s), want 502", status, resp.Error)
	}
	// Breaker now open: the next question is refused up front with 503 +
	// Retry-After instead of burning another cluster session.
	body, _ := inlineReqBody(fleet(2, 5, 2, 4, 25))
	httpResp, raw := r.postRaw(t, body)
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker open: HTTP %d (%s), want 503", httpResp.StatusCode, raw)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("breaker-open 503 carries no Retry-After")
	}
}

// inlineReqBody marshals an inline request to its JSON body.
func inlineReqBody(ps []*switching.Profile) (string, error) {
	b, err := json.Marshal(inlineReq(ps, verify.Spec{}))
	return string(b), err
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3600") // must be capped, not slept
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"draining"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"verdict":{"schedulable":true,"depth":0,"violator":-1}}`)
	}))
	defer srv.Close()

	shrink(t, &maxRetryWait, 10*time.Millisecond)
	cli := &Client{BaseURL: srv.URL, Retry503: 3}
	t0 := time.Now()
	resp, err := cli.Admit(&AdmitRequest{Apps: []string{"x"}})
	if err != nil {
		t.Fatalf("retried client: %v", err)
	}
	if resp.Verdict == nil || !resp.Verdict.Schedulable {
		t.Fatalf("retried client got no verdict: %+v", resp)
	}
	if hits.Load() != 3 {
		t.Errorf("server hit %d times, want 3", hits.Load())
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("Retry-After was not capped: total wait %v", d)
	}

	// Default client: no retries, the 503 surfaces directly.
	hits.Store(0)
	plain := &Client{BaseURL: srv.URL}
	_, err = plain.Admit(&AdmitRequest{Apps: []string{"x"}})
	if se, ok := AsStatusError(err); !ok || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("default client should surface the 503, got %v", err)
	}
	if hits.Load() != 1 {
		t.Errorf("default client retried: %d hits", hits.Load())
	}
}
