package admit

// Backend-resilience tests: the local-fallback degraded mode (failed
// clusters served locally, deterministic classes never) and the client's
// capped Retry-After handling — both default-off, so these rigs opt in
// explicitly.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// shrink sets *p to v until the test ends. Call it before newRig: the
// rig drains its service first, so no worker reads *p as it is restored.
func shrink(t *testing.T, p *time.Duration, v time.Duration) {
	saved := *p
	*p = v
	t.Cleanup(func() { *p = saved })
}

// TestLocalFallbackNeverServesDeterministicErrors: a budget or encoding
// error is a property of the request, which the local engine would answer
// the same way: with LocalFallback on, the backend's error is the answer —
// 422 and 400 — after one backend call, and nothing is served locally.
func TestLocalFallbackNeverServesDeterministicErrors(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
	}{
		{verify.ErrTooLarge, http.StatusUnprocessableEntity},
		{verify.ErrEncoding, http.StatusBadRequest},
	} {
		var calls atomic.Int64
		r := newRig(t, backendCase{name: "deterministic"}, func(o *Options) {
			o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
				calls.Add(1)
				return verify.Result{}, fmt.Errorf("backend: %w", tc.err)
			}
			o.BackendDesc = "always " + tc.err.Error()
			o.LocalFallback = true
		})
		status, resp, _ := r.submit(t, inlineReq(fleet(2, 5, 2, 4, 20), verify.Spec{}))
		if status != tc.status {
			t.Fatalf("%v: HTTP %d (%s), want %d", tc.err, status, resp.Error, tc.status)
		}
		if calls.Load() != 1 || r.svc.ServiceStats().LocalFallbacks != 0 {
			t.Errorf("%v: %d backend calls, %d local fallbacks; want 1 and 0", tc.err, calls.Load(), r.svc.ServiceStats().LocalFallbacks)
		}
	}
}

// TestLocalFallbackServesDeadCluster: every worker of the cluster is dead
// (their transports closed before the first submit). With LocalFallback
// three distinct questions each get 200 and the local verdict; the first
// finds the deaths at Init, the later two fail on the dead cluster at once.
func TestLocalFallbackServesDeadCluster(t *testing.T) {
	ts := dverify.Loopback(2)
	dverify.Close(ts)
	mesh := dverify.Runner(ts)
	var failed atomic.Int64
	r := newRig(t, backendCase{name: "dead"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			res, err := mesh(ps, cfg)
			if err != nil && strings.HasPrefix(err.Error(), "dverify: node 0: ") {
				failed.Add(1)
			}
			return res, err
		}
		o.BackendDesc = "loopback2 (every worker dead)"
		o.LocalFallback = true
	})
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
	if st := r.svc.ServiceStats(); failed.Load() != 3 || st.LocalFallbacks != 3 || st.Errors != 0 {
		t.Errorf("%d backend failures naming node 0, stats %+v; want 3 failures, 3 fallbacks, no error", failed.Load(), st)
	}
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
