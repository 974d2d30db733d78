package admit

// Fault injection at the service boundary: mesh worker processes die
// mid-job behind the admission service. While one worker survives, the
// cluster restarts the run on it and every submit gets its exact verdict.
// With every worker dead the HTTP client gets a clean 502 naming a dead
// node — no hang — and the failed fingerprint is not poisoned in any cache
// layer: the next submit of the same question runs a fresh backend
// verification and returns the real verdict.

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// crashListener records accepted connections so the test can sever them
// all at once, like a killed worker process.
type crashListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *crashListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *crashListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

func TestServiceMeshWorkerCrash(t *testing.T) {
	// A 2-node TCP mesh of workers rigged to crash.
	var ls [2]*crashListener
	addrs := make([]string, 2)
	for i := range ls {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = &crashListener{Listener: raw}
		t.Cleanup(ls[i].kill)
		go dverify.NewServer(ls[i], nil).Serve()
		addrs[i] = raw.Addr().String()
	}
	ts, err := dverify.Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dverify.Close(ts) })

	// The backend routes to the doomed cluster until the test flips it to
	// the local engine — the post-crash resubmit then proves no cache
	// layer memorized the failure.
	var useLocal atomic.Bool
	mesh := dverify.Runner(ts)
	backend := func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		if useLocal.Load() {
			return verify.Slot(ps, cfg)
		}
		return mesh(ps, cfg)
	}
	r := newRig(t, backendCase{name: "crashy"}, func(o *Options) {
		o.Backend = backend
		o.BackendDesc = "tcp2 (crash-rigged)"
	})

	type result struct {
		status  int
		resp    *AdmitResponse
		verdict []byte
	}
	submit := func(ps []*switching.Profile) result {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			status, resp, verdict := r.submit(t, inlineReq(ps, verify.Spec{}))
			done <- result{status, resp, verdict}
		}()
		select {
		case got := <-done:
			return got
		case <-time.After(60 * time.Second):
			t.Fatal("HTTP client hung after a worker crash")
		}
		return result{}
	}
	exact := func(label string, ps []*switching.Profile) {
		t.Helper()
		want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
		got := submit(ps)
		if got.status != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s), want 200", label, got.status, got.resp.Error)
		}
		if !bytes.Equal(got.verdict, want) {
			t.Fatalf("%s: verdict diverges:\n got %s\nwant %s", label, got.verdict, want)
		}
	}

	// The 5-app fleet runs to 432k states (hundreds of milliseconds over
	// TCP); the kill 30ms in lands mid-job, or else at the next Init.
	time.AfterFunc(30*time.Millisecond, ls[1].kill)
	exact("the submit worker 1 dies in", fleet(5, 7, 1, 2, 12))
	exact("the submit after it", fleet(2, 5, 2, 4, 20))

	// The last worker dies: a clean 502 naming a node.
	ls[0].kill()
	ps := fleet(2, 5, 2, 4, 25)
	got := submit(ps)
	if got.status != http.StatusBadGateway {
		t.Fatalf("dead cluster: HTTP %d (%s), want 502", got.status, got.resp.Error)
	}
	if !strings.Contains(got.resp.Error, "node") {
		t.Fatalf("502 does not name a dead node: %q", got.resp.Error)
	}
	st := r.svc.ServiceStats()
	if st.Errors != 1 || st.Verifications != 3 {
		t.Fatalf("stats after the crashes: %+v", st)
	}

	// No poison: the same question over a healthy backend runs fresh and
	// yields the real verdict — the verdict store may not have recorded
	// the failure.
	useLocal.Store(true)
	want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
	status, resp, verdict := r.submit(t, inlineReq(ps, verify.Spec{}))
	if status != http.StatusOK {
		t.Fatalf("resubmit after crash: HTTP %d (%s)", status, resp.Error)
	}
	if resp.Cached || resp.Warm {
		t.Fatalf("resubmit served from cache — the failure was memorized: %+v", resp)
	}
	if !bytes.Equal(verdict, want) {
		t.Fatalf("resubmit verdict diverges:\n got %s\nwant %s", verdict, want)
	}
	if st := r.svc.ServiceStats(); st.Verifications != 4 {
		t.Fatalf("resubmit did not run a fresh verification: %+v", st)
	}
}
