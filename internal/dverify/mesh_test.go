package dverify

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/verify"
)

// loopGroupOf digs the mesh rendezvous out of a loopback cluster so tests
// can install link hooks before the run starts.
func loopGroupOf(t *testing.T, ts []Transport) *loopGroup {
	t.Helper()
	lt, ok := ts[0].(*loopTransport)
	if !ok {
		t.Fatalf("transport %T is not a loopback worker", ts[0])
	}
	return lt.group
}

// TestMeshDelayedAbsorbInterleavings drives the full equivalence matrix
// through a mesh whose links deliver every batch late and out of order —
// each delivery is parked on its own timer with a jittered delay, so
// absorbs land across later epochs and interleave adversarially with the
// coordinator's milestone advances. The verdict, the exhaustive counts
// and the minimal violator must still be bit-identical to the local
// search: late absorbs may only delay final/done, never fake them.
func TestMeshDelayedAbsorbInterleavings(t *testing.T) {
	for _, tc := range equivalenceCases {
		ps := tc.ps()
		cfg := verify.Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: 4}
		local, err := verify.Slot(ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, nodes := range []int{2, 4} {
			ts := Loopback(nodes)
			g := loopGroupOf(t, ts)
			var mu sync.Mutex
			rng := rand.New(rand.NewSource(int64(nodes)*7919 + int64(len(tc.name))))
			g.deliver = func(from, to int, b meshBatch, push func(meshBatch)) bool {
				mu.Lock()
				d := time.Duration(rng.Intn(4)) * time.Millisecond
				mu.Unlock()
				time.AfterFunc(d, func() { push(b) })
				return true
			}
			dist, err := Runner(ts)(ps, cfg)
			Close(ts)
			if err != nil {
				t.Fatalf("%s: delayed nodes=%d: %v", tc.name, nodes, err)
			}
			checkMatchesLocal(t, fmt.Sprintf("%s: delayed nodes=%d", tc.name, nodes), dist, local)
		}
	}
}

// TestMeshRoundsPerLevel: a mesh run takes one coordinator round per BFS
// level, at most one more that absorbs only duplicates, and the Finish
// round — a count the state space sets, not timing, so five runs of one
// cluster shape agree on it. The fixtures' levels are small enough that no
// poll budget runs out, even under the race detector.
func TestMeshRoundsPerLevel(t *testing.T) {
	tcp, err := Dial([]string{startWorker(t), startWorker(t)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []struct {
		name string
		ts   []Transport
	}{{"loopback2", Loopback(2)}, {"loopback4", Loopback(4)}, {"tcp2", tcp}}
	defer func() {
		for _, cl := range clusters {
			Close(cl.ts)
		}
	}()
	for _, apps := range [][]string{{"C6", "C2"}, {"C1", "C5", "C4"}} {
		ps, err := plants.ProfileList(apps...)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range clusters {
			label := fmt.Sprintf("%v on %s", apps, cl.name)
			rounds := 0
			for run := 0; run < 5; run++ {
				tr := obs.NewTrace("")
				res, err := Runner(cl.ts)(ps, verify.Config{NondetTies: true, RunTrace: tr})
				if err != nil || !res.Schedulable {
					t.Fatalf("%s: %+v, %v", label, res, err)
				}
				if tr.Epochs > res.Depth+3 {
					t.Errorf("%s run %d: %d rounds for depth %d, want at most %d", label, run, tr.Epochs, res.Depth, res.Depth+3)
				}
				if run > 0 && tr.Epochs != rounds {
					t.Errorf("%s run %d: %d rounds, run 0 took %d", label, run, tr.Epochs, rounds)
				}
				rounds = tr.Epochs
			}
		}
	}
}

// TestMeshLinkFaultInjection breaks one worker↔worker link mid-run: the
// coordinator must surface a clean error — not hang an epoch — that names
// the far end of the broken link as the dead node, the reporting end, and
// the injected cause, and the cluster must stay reusable afterwards.
func TestMeshLinkFaultInjection(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	g := loopGroupOf(t, ts)
	var mu sync.Mutex
	sends := 0
	g.failSend = func(from, to int) error {
		mu.Lock()
		defer mu.Unlock()
		if sends++; sends > 3 {
			return errors.New("injected link failure")
		}
		return nil
	}
	// A link of the poisoned session, held past its end like a TCP peer
	// reader: its late EOF lands while the next session runs.
	var stale func(meshBatch)
	g.deliver = func(from, to int, b meshBatch, push func(meshBatch)) bool {
		mu.Lock()
		defer mu.Unlock()
		if sends <= 3 {
			stale = push
		} else if stale != nil {
			stale(meshBatch{from: from, err: errors.New("late EOF of the poisoned session")})
			stale = nil
		}
		return false
	}

	cfg := verify.Config{NondetTies: true}
	done := make(chan error, 1)
	go func() {
		_, err := Runner(ts)(fleet(3, 6, 1, 2, 10), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a broken mesh link went unreported")
		}
		m := regexp.MustCompile(`^dverify: node (\d): mesh link from node (\d): injected link failure$`).FindStringSubmatch(err.Error())
		if m == nil || m[1] == m[2] {
			t.Fatalf("want an error naming the far end, the reporter and the cause, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after a mesh link failure")
	}

	// The poisoned session must not wedge the workers or leak into the next
	// one: the same cluster verifies cleanly once the fault is lifted.
	g.failSend = nil
	res, err := Runner(ts)(fleet(3, 6, 1, 2, 10), cfg)
	if err != nil || !res.Schedulable {
		t.Fatalf("cluster not reusable after a link fault: %v %+v", err, res)
	}
}

// trackingListener records accepted connections so a test can sever them,
// simulating a worker process crash mid-epoch.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestMeshWorkerCrashMidEpoch crashes one TCP worker in the middle of a
// mesh run (all of its connections die at once, like a killed process):
// the coordinator must return a clean error naming the node, without
// hanging, and the surviving worker must return to accepting sessions.
func TestMeshWorkerCrashMidEpoch(t *testing.T) {
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l0.Close() })
	go NewServer(l0, nil).Serve()

	l1raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1 := &trackingListener{Listener: l1raw}
	t.Cleanup(func() { l1.kill() })
	go NewServer(l1, nil).Serve()

	ts, err := Dial([]string{l0.Addr().String(), l1.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	// The 4-app r=40 fleet runs to 2.9M states (≈ seconds over TCP), so a
	// kill 100ms in lands squarely inside the epoch exchange.
	time.AfterFunc(100*time.Millisecond, l1.kill)
	done := make(chan error, 1)
	go func() {
		_, err := Runner(ts)(fleet(4, 8, 2, 4, 40), verify.Config{NondetTies: true})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node") {
			t.Fatalf("want a clean error naming the crashed node, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after a worker crash mid-epoch")
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(*Request) (*Response, error)

func (f transportFunc) Call(req *Request) (*Response, error) { return f(req) }
func (f transportFunc) Close() error                         { return nil }

// TestMeshTopologyForcedOnWrappedTransports: a cluster whose workers cannot
// link up directly — a transport the mesh cannot see through, loopback
// workers of two groups, loopback next to TCP — is refused by name before
// any worker receives a request. The loopback workers are closed up front,
// so a request reaching one would surface as a transport error instead.
func TestMeshTopologyForcedOnWrappedTransports(t *testing.T) {
	a, b := Loopback(2), Loopback(1)
	Close(a)
	Close(b)
	wrappedCalls := 0
	wrapped := transportFunc(func(req *Request) (*Response, error) {
		wrappedCalls++
		return a[1].Call(req)
	})
	tcp, tcpKinds := cannedWorker(t, Response{Proto: protoVersion}, 0)

	for name, nodes := range map[string][]Transport{
		"wrapped":             {a[0], wrapped},
		"two loopback groups": {a[0], b[0]},
		"loopback + TCP":      {a[0], tcp},
	} {
		_, err := Runner(nodes)(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true})
		if err == nil || !strings.Contains(err.Error(), "cannot form a worker mesh") {
			t.Errorf("%s: want the mesh-capability error, got %v", name, err)
		}
	}
	if wrappedCalls != 0 || len(tcpKinds()) != 0 {
		t.Errorf("workers saw requests before the refusal: %d through the wrapper, %v over TCP", wrappedCalls, tcpKinds())
	}
}

// TestServerSingleClusterAdmission: a daemon's worker slot is exclusive —
// a second coordinator session's jobs are refused while the first session
// lives (the per-node MaxStates memory model budgets ONE visited
// partition), and the slot frees when that session ends.
func TestServerSingleClusterAdmission(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(l, nil).Serve()
	addr := l.Addr().String()

	ps := fleet(2, 6, 1, 2, 10)
	cfg := verify.Config{NondetTies: true}
	ts1, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Runner(ts1)(ps, cfg); err != nil {
		t.Fatalf("first session: %v", err)
	}

	// The first session still holds the slot (its connection is open).
	ts2, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts2)
	if _, err := Runner(ts2)(ps, cfg); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("second concurrent session: want a busy refusal, got %v", err)
	}

	// Ending the first session frees the slot. The release follows the
	// connection close asynchronously, and the next Init waits for it.
	Close(ts1)
	if _, err := Runner(ts2)(ps, cfg); err != nil {
		t.Fatalf("slot not handed on after the first session closed: %v", err)
	}
}

// TestServerGracefulShutdown drains a verifyd-equivalent server mid-job:
// the active session's verification must complete exactly, new sessions
// must be refused, and Serve must return once the session closes.
func TestServerGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	addr := l.Addr().String()
	ts, err := Dial([]string{addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	// Shutdown lands mid-run: the 5-app fleet runs to 432k states
	// (hundreds of milliseconds over TCP), so a trigger 30ms in drains a
	// live job.
	ps := fleet(5, 7, 1, 2, 12)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(30*time.Millisecond, srv.Shutdown)
	res, err := Runner(ts)(ps, verify.Config{NondetTies: true})
	if err != nil {
		t.Fatalf("job interrupted by graceful drain: %v", err)
	}
	if !res.Schedulable || res.States != local.States {
		t.Fatalf("drained mid-job: %+v, local %+v", res, local)
	}
	for !srv.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// New jobs on the live session are refused while draining...
	if _, err := Runner(ts)(fleet(2, 6, 1, 2, 10), verify.Config{NondetTies: true}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("new job during drain: want a draining refusal, got %v", err)
	}
	// ...and new connections are not accepted at all.
	if _, err := Dial([]string{addr}, 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded against a draining server")
	}

	Close(ts)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful Serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drained session closed")
	}
}
