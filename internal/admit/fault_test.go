package admit

// Fault injection at the service boundary: a mesh worker process dies
// mid-job behind the admission service. The HTTP client must get a clean
// 502 naming the dead node — no hang — and the failed fingerprint must
// not be poisoned in any cache layer: the next submit of the same
// question runs a fresh backend verification and returns the real
// verdict.

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
	// A 2-node TCP mesh, the second worker rigged to crash.
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l0.Close() })
	go dverify.NewServer(l0, nil).Serve()

	l1raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1 := &crashListener{Listener: l1raw}
	t.Cleanup(l1.kill)
	go dverify.NewServer(l1, nil).Serve()

	ts, err := dverify.Dial([]string{l0.Addr().String(), l1.Addr().String()}, time.Second)
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
		o.BackendNodes = 2
		o.BackendDesc = "tcp2 (crash-rigged)"
	})

	// The 4-app r=40 fleet runs to 2.9M states (seconds over TCP); the
	// kill 100ms in lands mid-job.
	ps := fleet(4, 8, 2, 4, 40)
	req := inlineReq(ps, verify.Spec{})
	time.AfterFunc(100*time.Millisecond, l1.kill)

	type result struct {
		status int
		resp   *AdmitResponse
	}
	done := make(chan result, 1)
	go func() {
		status, resp, _ := r.submit(t, req)
		done <- result{status, resp}
	}()
	var got result
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("HTTP client hung after the worker crash")
	}
	if got.status != http.StatusBadGateway {
		t.Fatalf("crashed backend: HTTP %d (%s), want 502", got.status, got.resp.Error)
	}
	if !strings.Contains(got.resp.Error, "node") {
		t.Fatalf("502 does not name the dead node: %q", got.resp.Error)
	}

	st := r.svc.ServiceStats()
	if st.Errors == 0 || st.Verifications != 1 {
		t.Fatalf("stats after crash: %+v", st)
	}

	// No poison: the same question over a healthy backend runs fresh and
	// yields the real verdict — the verdict store may not have recorded
	// the failure.
	useLocal.Store(true)
	want := localVerdictJSON(t, ps, verify.Spec{}, namesOf(ps))
	status, resp, verdict := r.submit(t, req)
	if status != http.StatusOK {
		t.Fatalf("resubmit after crash: HTTP %d (%s)", status, resp.Error)
	}
	if resp.Cached || resp.Warm {
		t.Fatalf("resubmit served from cache — the failure was memorized: %+v", resp)
	}
	if !bytes.Equal(verdict, want) {
		t.Fatalf("resubmit verdict diverges:\n got %s\nwant %s", verdict, want)
	}
	if st := r.svc.ServiceStats(); st.Verifications != 2 {
		t.Fatalf("resubmit did not run a fresh verification: %+v", st)
	}
}
