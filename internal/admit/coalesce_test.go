package admit

// Service-level coalescing: N concurrent submits of one admission
// question (order-permuted, so fingerprint-equal but not byte-equal) must
// run the backend exactly once, with N-1 waiters sharing the leader's
// verdict. The backend is gated so the test controls exactly when the one
// verification completes — the waiters are provably parked, not racing.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

func TestServiceCoalescing(t *testing.T) {
	const n = 8

	var runs atomic.Int32
	gate := make(chan struct{})
	backend := func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		runs.Add(1)
		<-gate
		return verify.Slot(ps, cfg)
	}
	r := newRig(t, backendCase{name: "gated"}, func(o *Options) {
		o.Backend = backend
		o.BackendDesc = "gated local"
	})

	// One profile set, submitted under n different orders: every rotation
	// is the same fingerprint, so the same question.
	ps := []*switching.Profile{
		prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25),
		prof("C", 9, 3, 5, 30), prof("D", 5, 2, 4, 20),
	}
	rotate := func(k int) []*switching.Profile {
		out := append(append([]*switching.Profile{}, ps[k%len(ps):]...), ps[:k%len(ps)]...)
		return out
	}

	var wg sync.WaitGroup
	type outcome struct {
		status    int
		resp      *AdmitResponse
		verdict   []byte
		coalesced bool
	}
	outs := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, verdict := r.submit(t, inlineReq(rotate(i), verify.Spec{}))
			outs[i] = outcome{status, resp, verdict, resp.Coalesced}
		}(i)
	}

	// Release the backend only after all n submits are accounted for at
	// the service: 1 leader in flight, n-1 coalesced waiters. Polling the
	// public stats (not sleeping) makes the parking provable.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r.svc.ServiceStats()
		if st.Coalesced == n-1 && st.Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d identical submits, want exactly 1", got, n)
	}
	st := r.svc.ServiceStats()
	if st.Coalesced != n-1 || st.Verifications != 1 || st.Submitted != n {
		t.Fatalf("stats after coalesced burst: %+v", st)
	}

	coalesced := 0
	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d (%s)", i, o.status, o.resp.Error)
		}
		if !bytes.Equal(o.verdict, outs[0].verdict) {
			t.Fatalf("submit %d verdict diverges:\n got %s\nwant %s", i, o.verdict, outs[0].verdict)
		}
		if o.coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coalesced, n-1)
	}

	// The burst's verdict is now cached: one more submit is a pure hit.
	status, resp, verdict := r.submit(t, inlineReq(rotate(3), verify.Spec{}))
	if status != http.StatusOK || !resp.Cached || !bytes.Equal(verdict, outs[0].verdict) {
		t.Fatalf("post-burst submit: HTTP %d cached=%v", status, resp.Cached)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("post-burst submit ran the backend again (%d runs)", got)
	}
}

// gatedQueue boots a service with one worker and a queue of one over a
// backend that blocks until released, then fills both: one distinct leader
// in the backend, a second in the queue. release opens the backend and
// returns both submits' statuses; a test that fails first is released on
// cleanup, so its held requests do not outlive it.
func gatedQueue(t *testing.T, mod func(*Options)) (r *rig, release func() [2]int) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	r = newRig(t, backendCase{name: "gated"}, func(o *Options) {
		o.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
			started <- struct{}{}
			<-gate
			return verify.Slot(ps, cfg)
		}
		o.QueueDepth = 1
		if mod != nil {
			mod(o)
		}
	})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)

	// Fill the worker: submit one leader and wait until the backend holds
	// it, so the queue slot is provably free for the second.
	results := make(chan int, 2)
	submit := func(ps []*switching.Profile) {
		go func() {
			status, _, _ := r.submit(t, inlineReq(ps, verify.Spec{}))
			results <- status
		}()
	}
	submit(fleet(2, 8, 2, 4, 40))
	<-started

	// Fill the queue with a second distinct leader.
	submit(fleet(3, 8, 2, 4, 40))
	deadline := time.Now().Add(30 * time.Second)
	for r.svc.ServiceStats().Inflight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second leader never enqueued: %+v", r.svc.ServiceStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return r, func() [2]int {
		open()
		return [2]int{<-results, <-results}
	}
}

// TestServiceQueueBound: with the queue full, distinct submits are
// refused with 503 + Retry-After instead of queuing unboundedly; the
// in-flight work still completes.
func TestServiceQueueBound(t *testing.T) {
	r, release := gatedQueue(t, nil)

	// A third distinct submit finds the queue full.
	resp, _ := r.postRaw(t, mustBody(t, inlineReq(fleet(5, 8, 2, 4, 40), verify.Spec{})))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	if statuses := release(); statuses != [2]int{http.StatusOK, http.StatusOK} {
		t.Fatalf("held submits: HTTP %v", statuses)
	}
}

// TestServiceWarmAnswerSkipsQueue: a bit-only record loaded at a warm start
// is answered at lookup, so it is served while the queue is full.
func TestServiceWarmAnswerSkipsQueue(t *testing.T) {
	dir := t.TempDir()
	req := inlineReq(fleet(3, 6, 1, 2, 10), verify.Spec{})
	cold := newRig(t, backendCase{name: "local"}, func(o *Options) { o.CacheDir = dir })
	if status, resp, _ := cold.submit(t, req); status != http.StatusOK {
		t.Fatalf("cold submit: HTTP %d (%s)", status, resp.Error)
	}
	cold.svc.Drain()

	r, release := gatedQueue(t, func(o *Options) { o.CacheDir = dir })
	status, resp, _ := r.submit(t, req)
	if status != http.StatusOK || !resp.Warm || resp.Verdict == nil || !resp.Verdict.Schedulable {
		t.Fatalf("warm submit with a full queue: HTTP %d %+v", status, resp)
	}
	if st := r.svc.ServiceStats(); st.WarmHits != 1 || st.Refused != 0 {
		t.Fatalf("stats after the warm submit: %+v", st)
	}

	if statuses := release(); statuses != [2]int{http.StatusOK, http.StatusOK} {
		t.Fatalf("held submits: HTTP %v", statuses)
	}
}

func mustBody(t testing.TB, req *AdmitRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
