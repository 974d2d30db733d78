package admit

// The fleet drain discipline, end to end with a real SIGTERM: a
// verification that takes >1s is in flight when the signal lands and
// Drain starts — it must complete with a real verdict while new submits
// get 503 + Retry-After. Extends the dverify Server graceful-drain e2e one
// layer up, at the HTTP boundary.

import (
	"bytes"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

func TestServiceDrainOnSIGTERM(t *testing.T) {
	// Catch SIGTERM before raising it: Notify routes the signal here
	// instead of killing the test binary.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	started := make(chan struct{})
	backend := func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		close(started)
		time.Sleep(1100 * time.Millisecond) // the >1s in-flight verification
		return verify.Slot(ps, cfg)
	}
	r := newRig(t, backendCase{name: "slow"}, func(o *Options) {
		o.Backend = backend
		o.BackendDesc = "slow local"
	})

	// What cmd/verifyd's signal loop does on the first signal.
	go func() {
		<-sigs
		r.svc.Drain()
	}()

	// The long verification goes in flight...
	ps := fleet(3, 6, 1, 2, 10)
	want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
	inflight := make(chan struct{})
	var gotStatus int
	var gotVerdict []byte
	go func() {
		defer close(inflight)
		status, _, verdict := r.submit(t, inlineReq(ps, verify.Spec{}))
		gotStatus, gotVerdict = status, verdict
	}()
	<-started

	// ...SIGTERM lands...
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !r.svc.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("service never started draining after SIGTERM")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// ...new submits are refused with 503 + Retry-After...
	resp, _ := r.postRaw(t, mustBody(t, inlineReq(fleet(2, 8, 2, 4, 40), verify.Spec{})))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	if hr, err := http.Get(r.ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/healthz while draining: HTTP %d, want 503", hr.StatusCode)
		}
	}

	// ...the in-flight verdict still completes, for real...
	select {
	case <-inflight:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	if gotStatus != http.StatusOK {
		t.Fatalf("in-flight request during drain: HTTP %d", gotStatus)
	}
	if !bytes.Equal(gotVerdict, want) {
		t.Fatalf("drained verdict diverges:\n got %s\nwant %s", gotVerdict, want)
	}

	select {
	case <-r.svc.drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after the in-flight verdict")
	}
}

// TestServiceDrainIdempotent: concurrent Drain calls all block until one
// drain completes; submits after drain stay refused.
func TestServiceDrainIdempotent(t *testing.T) {
	r := newRig(t, backendCase{name: "local"}, nil)
	done := make(chan struct{}, 2)
	go func() { r.svc.Drain(); done <- struct{}{} }()
	go func() { r.svc.Drain(); done <- struct{}{} }()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent Drain wedged")
		}
	}
	status, resp, _ := r.submit(t, inlineReq(fleet(2, 8, 2, 4, 40), verify.Spec{}))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d (%s)", status, resp.Error)
	}
}
