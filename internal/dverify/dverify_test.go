package dverify

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// prof mirrors the synthetic profile helper of the verify tests: constant
// dwell tables, the knobs that matter being T*w, Tdw−/Tdw+ and r.
func prof(name string, twStar, dm, dp, r int) *switching.Profile {
	n := twStar + 1
	minT := make([]int, n)
	plusT := make([]int, n)
	for i := range minT {
		minT[i] = dm
		plusT[i] = dp
	}
	return &switching.Profile{Name: name, TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
		R: r, Granularity: 1, JStar: twStar + dp, JAtMin: make([]int, n), JBest: make([]int, n)}
}

func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

// verifyOver runs the distributed search over a fresh loopback cluster.
func verifyOver(t *testing.T, nodes int, ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
	t.Helper()
	ts := Loopback(nodes)
	defer Close(ts)
	return Verify(ps, cfg, ts)
}

// equivalenceCases is the distributed-vs-local matrix shared by the
// equivalence tests: schedulable and violating sets on both encodings, at
// the n = 6/7/12 boundaries, with and without the symmetry quotient.
// words is the state width the set must have (TestLoopbackMatchesLocal
// checks it): lanes are fitted to the set's largest r, so a fixture is on
// the 4-word wire only by its own n and r.
var equivalenceCases = []struct {
	name  string
	ps    func() []*switching.Profile
	sym   bool
	words int
}{
	{"single", func() []*switching.Profile { return []*switching.Profile{prof("A", 5, 2, 4, 20)} }, false, 1},
	{"overload2", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}, false, 1},
	{"loosePair", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	}, false, 1},
	{"asymTriple", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	}, false, 1},
	{"narrow6", func() []*switching.Profile { return fleet(6, 5, 2, 4, 20) }, false, 1},
	// Fleets past the paper's scale. The unquotiented schedulable 7-app
	// spaces run to millions of states, so the exhaustive-count checks ride
	// the symmetry quotient (canonicalisation happens inside the shared
	// expansion core, identically on every node). With r ≤ 12 they fit one
	// word.
	{"het7sym", func() []*switching.Profile { return append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12)) }, true, 1},
	{"fleet7sym", func() []*switching.Profile { return fleet(7, 6, 1, 2, 10) }, true, 1},
	{"fleet9sym", func() []*switching.Profile { return fleet(9, 8, 1, 2, 9) }, true, 1},
	{"overload7", func() []*switching.Profile { return fleet(7, 2, 1, 2, 5) }, false, 1},
	// Wide-encoding cases, each wide by its own n and r: one rare
	// application (r = 65) widens every lane of a seven-app set to 9 bits,
	// schedulable under the quotient; eight apps at r = 33, violating
	// without it; seven apps at r = 65; twelve at r = 6.
	{"wideMixed7sym", func() []*switching.Profile { return append(fleet(6, 6, 1, 2, 7), prof("X", 7, 1, 3, 65)) }, true, 3},
	{"wide8r33", func() []*switching.Profile { return fleet(8, 2, 2, 4, 33) }, false, 3},
	{"overload7wide", func() []*switching.Profile { return fleet(7, 2, 1, 2, 65) }, false, 3},
	{"overload12", func() []*switching.Profile { return fleet(12, 1, 1, 2, 6) }, false, 3},
}

// checkMatchesLocal asserts one distributed result against the local
// parallel search: bit-identical verdict; on exhaustively-searched
// (schedulable) sets identical state/transition/depth counts; on
// violations the same minimal violator (minimum violating packed state of
// the first violating level) and the same first-violating-level depth.
func checkMatchesLocal(t *testing.T, label string, dist, local verify.Result) {
	t.Helper()
	if dist.Schedulable != local.Schedulable {
		t.Errorf("%s: schedulable=%v, local=%v", label, dist.Schedulable, local.Schedulable)
	}
	if local.Schedulable {
		if dist.States != local.States || dist.Transitions != local.Transitions || dist.Depth != local.Depth {
			t.Errorf("%s: counts (%d,%d,%d), local (%d,%d,%d)", label,
				dist.States, dist.Transitions, dist.Depth, local.States, local.Transitions, local.Depth)
		}
	} else {
		if dist.Violator != local.Violator {
			t.Errorf("%s: violator=%d, local parallel=%d", label, dist.Violator, local.Violator)
		}
		if dist.Depth != local.Depth {
			t.Errorf("%s: violation depth=%d, local=%d", label, dist.Depth, local.Depth)
		}
	}
}

// TestLoopbackMatchesLocal is the distributed-vs-local equivalence matrix:
// 1/2/4 loopback nodes must reproduce the local results bit-identically.
func TestLoopbackMatchesLocal(t *testing.T) {
	for _, tc := range equivalenceCases {
		ps := tc.ps()
		cfg := verify.Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: 4}
		if exp, err := verify.NewExpander(ps, cfg); err != nil || exp.StateWords() != tc.words {
			t.Fatalf("%s: fixture yields %d-word states, want %d (%v)", tc.name, exp.StateWords(), tc.words, err)
		}
		local, err := verify.Slot(ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, nodes := range []int{1, 2, 4} {
			dist, err := verifyOver(t, nodes, ps, cfg)
			if err != nil {
				t.Fatalf("%s: nodes=%d: %v", tc.name, nodes, err)
			}
			checkMatchesLocal(t, fmt.Sprintf("%s: nodes=%d", tc.name, nodes), dist, local)
		}
	}
}

// TestPerNodeBudgetScalesCapacity pins the distribution lever: under the
// same MaxStates, the single-node run must reject with ErrTooLarge while a
// 4-node cluster — whose budget is per node — completes the search and
// reproduces the unbounded counts.
func TestPerNodeBudgetScalesCapacity(t *testing.T) {
	ps := fleet(4, 6, 1, 2, 10)
	cfg := verify.Config{NondetTies: true, Workers: 2}
	full, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Schedulable {
		t.Fatalf("expected a schedulable set, got %+v", full)
	}
	cfg.MaxStates = full.States * 2 / 3
	if _, err := verify.Slot(ps, cfg); !errors.Is(err, verify.ErrTooLarge) {
		t.Fatalf("local run under budget %d: want ErrTooLarge, got %v", cfg.MaxStates, err)
	}
	busted, err := verifyOver(t, 1, ps, cfg)
	if !errors.Is(err, verify.ErrTooLarge) {
		t.Fatalf("1-node run under budget %d: want ErrTooLarge, got %v", cfg.MaxStates, err)
	}
	if busted.States == 0 {
		t.Fatalf("budget-busted run reported no partial exploration (want States > 0 like the local search)")
	}
	dist, err := verifyOver(t, 4, ps, cfg)
	if err != nil {
		t.Fatalf("4-node run under per-node budget %d: %v", cfg.MaxStates, err)
	}
	if !dist.Schedulable || dist.States != full.States {
		t.Fatalf("4-node run %+v, unbounded local %+v", dist, full)
	}
}

// startWorker serves one verifyd-equivalent worker on an ephemeral
// loopback port, returning its address.
func startWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(l, nil).Serve()
	return l.Addr().String()
}

// TestTCPEndToEnd drives the gob transport against two in-process workers,
// reusing the connections for a second job to cover the Init reset.
func TestTCPEndToEnd(t *testing.T) {
	addrs := []string{startWorker(t), startWorker(t)}
	ts, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	cfg := verify.Config{NondetTies: true}
	for _, tc := range []struct {
		name string
		ps   []*switching.Profile
	}{
		{"schedulable", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}},
		{"violating", fleet(7, 2, 1, 2, 65)}, // 4-word states over TCP
	} {
		local, err := verify.Slot(tc.ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		dist, err := Verify(tc.ps, cfg, ts)
		if err != nil {
			t.Fatalf("%s: tcp: %v", tc.name, err)
		}
		if dist.Schedulable != local.Schedulable {
			t.Errorf("%s: tcp schedulable=%v, local=%v", tc.name, dist.Schedulable, local.Schedulable)
		}
		if local.Schedulable && dist.States != local.States {
			t.Errorf("%s: tcp states=%d, local=%d", tc.name, dist.States, local.States)
		}
	}
}

// TestWorkerFailureMidLevelErrorsCleanly kills a worker after init (i.e.
// during the level exchange) of a run without fault tolerance and requires
// a clean error — not a hang — naming the failed node.
func TestWorkerFailureMidLevelErrorsCleanly(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	// The plan fires before the first poll round: init succeeded on both.
	plan := &faultPlan{faults: []fault{{atLevel: 0, kill: ts[1].(*loopTransport).die}}}

	done := make(chan error, 1)
	go func() {
		_, err := verifyWithFaults(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true}, ts, nil, plan)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("want an error naming node 1, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after worker failure")
	}
}

// TestWorkerDisconnectTCP kills a TCP worker's connection mid-run: the
// coordinator must surface the transport error instead of blocking on the
// level barrier.
func TestWorkerDisconnectTCP(t *testing.T) {
	// A "worker" that serves exactly one request, then drops the link.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Close()
	}()

	addrs := []string{startWorker(t), l.Addr().String()}
	ts, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(ts)

	done := make(chan error, 1)
	go func() {
		_, err := Verify(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true}, ts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("want an error naming node 1, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after TCP worker disconnect")
	}
}

// cannedWorker dials a hand-rolled TCP "worker" that answers the first
// answers gob Requests of its one session with resp (every one when
// answers ≤ 0) and reads the rest without replying — a wedged worker. kinds
// reports the request kinds it has seen so far.
func cannedWorker(t *testing.T, resp Response, answers int) (tr Transport, kinds func() []Kind) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	var seen []Kind
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
		for req := new(Request); dec.Decode(req) == nil; req = new(Request) {
			mu.Lock()
			seen = append(seen, req.Kind)
			wedged := answers > 0 && len(seen) > answers
			mu.Unlock()
			if !wedged && enc.Encode(&resp) != nil {
				return
			}
		}
	}()
	ts, err := Dial([]string{l.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Close(ts) })
	return ts[0], func() []Kind {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

// TestWorkerErrResponse propagates worker-side Err responses as
// coordinator errors.
func TestWorkerErrResponse(t *testing.T) {
	worker, _ := cannedWorker(t, Response{Err: "boom"}, 0)
	if _, err := Verify(fleet(2, 6, 1, 2, 10), verify.Config{}, []Transport{worker}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the worker error surfaced, got %v", err)
	}
}

// TestMeshCounterexample: a mesh verdict carries no schedule, and
// verify.Counterexample rebuilds one from it locally. On V5 = S1 + C6 over
// two nodes of two lanes each the mesh names C4 at depth 12, and the
// schedule has one step per level above that miss.
func TestMeshCounterexample(t *testing.T) {
	ps, err := plants.ProfileList("C1", "C5", "C4", "C3", "C6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := verify.Config{NondetTies: true, Workers: 2}
	res, err := Verify(ps, cfg, Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable || res.States != 478_335 || res.Depth != 12 || ps[res.Violator].Name != "C4" {
		t.Fatalf("V5 on Loopback(2): schedulable=%v states=%d depth=%d violator %d, want C4 at depth 12 after 478335",
			res.Schedulable, res.States, res.Depth, res.Violator)
	}
	schedule, err := verify.Counterexample(ps, cfg, res)
	if err != nil || len(schedule) != res.Depth {
		t.Fatalf("Counterexample: %d steps (%v), want %d", len(schedule), err, res.Depth)
	}
}

// TestConfigValidation rejects bad cluster sizes and sets up front.
func TestConfigValidation(t *testing.T) {
	ps := fleet(2, 6, 1, 2, 10)
	if _, err := Verify(ps, verify.Config{}, nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := Verify(append(fleet(12, 1, 1, 2, 6), prof("X", 1, 1, 2, 6)), verify.Config{}, Loopback(1)); !errors.Is(err, verify.ErrEncoding) {
		t.Errorf("13-app set: want ErrEncoding, got %v", err)
	}
}

// TestRunnerHooksIntoVerifySlot exercises the verify.Config.Distributed
// seam end to end: verify.Slot with the hook set must return the
// distributed result.
func TestRunnerHooksIntoVerifySlot(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	ps := append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12))
	cfg := verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 2}
	local, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Distributed = Runner(ts)
	dist, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Schedulable != local.Schedulable || dist.States != local.States {
		t.Fatalf("hooked %+v, local %+v", dist, local)
	}
}
