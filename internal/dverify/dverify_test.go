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
	return Runner(ts)(ps, cfg)
}

// equivalenceCases is the distributed-vs-local matrix shared by the
// equivalence tests: schedulable and violating sets, at the n = 6/7/8/12
// boundaries and up to states that fill the word, with and without the
// symmetry quotient.
var equivalenceCases = []struct {
	name string
	ps   func() []*switching.Profile
	sym  bool
}{
	{"single", func() []*switching.Profile { return []*switching.Profile{prof("A", 5, 2, 4, 20)} }, false},
	{"overload2", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}, false},
	{"loosePair", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	}, false},
	{"asymTriple", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	}, false},
	{"narrow6", func() []*switching.Profile { return fleet(6, 5, 2, 4, 20) }, false},
	// Fleets past the paper's scale. The unquotiented schedulable 7-app
	// spaces run to millions of states, so the exhaustive-count checks ride
	// the symmetry quotient (canonicalisation happens inside the shared
	// expansion core, identically on every node).
	{"het7sym", func() []*switching.Profile { return append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12)) }, true},
	{"fleet7sym", func() []*switching.Profile { return fleet(7, 6, 1, 2, 10) }, true},
	{"fleet9sym", func() []*switching.Profile { return fleet(9, 8, 1, 2, 9) }, true},
	{"overload7", func() []*switching.Profile { return fleet(7, 2, 1, 2, 5) }, false},
	// Sets at the edge of the one-word state: eight 7-bit lanes at r = 32
	// and seven 8-bit ones at r = 64 fill the 64 bits, violating; twelve
	// apps, the application cap, at r = 4.
	{"full8r32", func() []*switching.Profile { return fleet(8, 2, 2, 4, 32) }, false},
	{"overload7r64", func() []*switching.Profile { return fleet(7, 2, 1, 2, 64) }, false},
	{"overload12", func() []*switching.Profile { return fleet(12, 1, 1, 2, 4) }, false},
}

// checkMatchesLocal asserts one distributed result against the local
// parallel search: bit-identical verdict and levels 0..Depth; on
// exhaustively-searched (schedulable) sets identical state/transition/depth
// counts; on violations the same minimal violator (minimum violating packed
// state of the first violating level) and the same first-violating-level
// depth.
func checkMatchesLocal(t *testing.T, label string, dist, local verify.Result) {
	t.Helper()
	if dist.Schedulable != local.Schedulable {
		t.Errorf("%s: schedulable=%v, local=%v", label, dist.Schedulable, local.Schedulable)
	}
	sameLevels(t, label, dist, local)
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

// checkLevels asserts that res.Levels covers levels 0..Depth and sums to
// States.
func checkLevels(t *testing.T, label string, res verify.Result) bool {
	t.Helper()
	sum := 0
	for _, n := range res.Levels {
		sum += n
	}
	if len(res.Levels) <= res.Depth || sum != res.States {
		t.Errorf("%s: %d levels summing to %d states, for depth %d and %d states", label, len(res.Levels), sum, res.Depth, res.States)
		return false
	}
	return true
}

// sameLevels asserts that both results' Levels sum to their States and
// that got's levels 0..Depth are want's, from the first that differs.
func sameLevels(t *testing.T, label string, got, want verify.Result) {
	t.Helper()
	if !checkLevels(t, label, got) || !checkLevels(t, label+" (want)", want) {
		return
	}
	g, w := got.Levels[:got.Depth+1], want.Levels[:want.Depth+1]
	k := 0
	for k < len(g) && k < len(w) && g[k] == w[k] {
		k++
	}
	if k < len(g) || k < len(w) {
		t.Errorf("%s: levels differ from level %d on: %v, want %v", label, k, g[k:], w[k:])
	}
}

// TestLoopbackMatchesLocal is the distributed-vs-local equivalence matrix:
// 1/2/4 loopback nodes must reproduce the local results bit-identically.
func TestLoopbackMatchesLocal(t *testing.T) {
	for _, tc := range equivalenceCases {
		ps := tc.ps()
		cfg := verify.Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: 4}
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

// TestClusterBustsWhereLanesBust: MaxStates bounds the question, not a
// node. A run is ErrTooLarge iff levels 0..D — D the first violating level,
// or the last — hold more than the budget, and a bust's Depth is the
// deepest level whose prefix fits. At budgets that straddle such a prefix
// the local lanes, one- and four-node loopback clusters and two TCP
// workers give the same outcome, Depth, levels 0..Depth and violator: a
// schedulable fleet at two thirds of its states and at all of them; S1
// (C1,C5,C4,C3) one state short of levels 0..16 and at exactly them; V5
// (S1 + C6) and C1,C2,C3,C5 one state short of levels 0..D — a bust at
// D−1 — and at exactly them, a violation: C1,C2,C3,C5's level 14 holds two
// violating states, so the nodes without one commit level 15 and pass the
// budget before the round ends.
func TestClusterBustsWhereLanesBust(t *testing.T) {
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	v5, err := plants.ProfileList("C1", "C5", "C4", "C3", "C6")
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := plants.ProfileList("C1", "C2", "C3", "C5")
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Dial([]string{startWorker(t), startWorker(t)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []struct {
		name string
		ts   []Transport
	}{{"Loopback(1)", Loopback(1)}, {"Loopback(4)", Loopback(4)}, {"2 TCP workers", tcp}}
	for _, c := range clusters {
		defer Close(c.ts)
	}
	fleet4 := fleet(4, 6, 1, 2, 10)
	full, err := verify.Slot(fleet4, verify.Config{NondetTies: true, Workers: 2})
	if err != nil || !full.Schedulable {
		t.Fatalf("fleet4: %+v, %v; want a schedulable set", full, err)
	}
	for _, tc := range []struct {
		name   string
		ps     []*switching.Profile
		budget int
		depth  int
		bust   bool
	}{
		{"fleet4", fleet4, full.States * 2 / 3, 8, true},
		{"fleet4", fleet4, full.States, full.Depth, false},
		{"S1", s1, 91_460, 15, true},
		{"S1", s1, 91_461, 16, true},
		{"V5", v5, 478_334, 11, true},
		{"V5", v5, 478_335, 12, false},
		{"C1,C2,C3,C5", sparse, 55_043, 13, true},
		{"C1,C2,C3,C5", sparse, 55_044, 14, false},
	} {
		cfg := verify.Config{NondetTies: true, Workers: 2, MaxStates: tc.budget}
		local, lerr := verify.Slot(tc.ps, cfg)
		label := fmt.Sprintf("%s under budget %d", tc.name, tc.budget)
		if errors.Is(lerr, verify.ErrTooLarge) != tc.bust || local.Depth != tc.depth || tc.bust && local.States <= tc.budget {
			t.Fatalf("%s, local lanes: %+v, %v; want a bust %v at depth %d", label, local, lerr, tc.bust, tc.depth)
		}
		if tc.name == "V5" && !tc.bust && (local.Schedulable || tc.ps[local.Violator].Name != "C4") {
			t.Fatalf("%s, local lanes: %+v; want C4", label, local)
		}
		for _, c := range clusters {
			got, err := Runner(c.ts)(tc.ps, cfg)
			if !errors.Is(err, lerr) || got.Depth != local.Depth || got.Schedulable != local.Schedulable || got.Violator != local.Violator || tc.bust && got.States <= tc.budget {
				t.Fatalf("%s, %s: %+v, %v; the local lanes: %+v, %v", label, c.name, got, err, local, lerr)
			}
			sameLevels(t, label+", "+c.name, got, local)
		}
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
		{"violating", fleet(7, 2, 1, 2, 64)}, // states that fill the word over TCP
	} {
		local, err := verify.Slot(tc.ps, cfg)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		dist, err := Runner(ts)(tc.ps, cfg)
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

// TestWorkerFailureMidLevelErrorsCleanly kills every worker after Init
// (i.e. during the level exchange) and requires a clean error — not a hang
// — naming the lowest dead node and its cause; the next run through the
// hook, with no node left, returns the same error without a call.
func TestWorkerFailureMidLevelErrorsCleanly(t *testing.T) {
	ts := Loopback(2)
	defer Close(ts)
	// The plan fires before the first poll round: init succeeded on both.
	plan := &faultPlan{faults: []fault{{atLevel: 0, kill: func() {
		close(ts[1].(*loopTransport).kill)
		close(ts[0].(*loopTransport).kill)
	}}}}
	run := runner(ts, plan)

	done := make(chan error, 1)
	go func() {
		_, err := run(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true})
		done <- err
	}()
	const want = "dverify: node 0: loopback worker was killed"
	select {
	case err := <-done:
		if err == nil || err.Error() != want {
			t.Fatalf("want %q, got %v", want, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after worker failure")
	}
	if _, err := run(fleet(3, 6, 1, 2, 10), verify.Config{NondetTies: true}); err == nil || err.Error() != want {
		t.Fatalf("a run on a dead cluster: want %q, got %v", want, err)
	}
}

// TestWorkerDisconnectTCP: a TCP worker whose connection drops at Init
// leaves the cluster instead of blocking the level barrier — the run
// finishes on the survivor with the local verdict.
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

	ps := fleet(3, 6, 1, 2, 10)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res verify.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Runner(ts)(ps, verify.Config{NondetTies: true})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("the survivor did not finish the run: %v", o.err)
		}
		checkMatchesLocal(t, "after a disconnect at Init", o.res, local)
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
	if _, err := Runner([]Transport{worker})(fleet(2, 6, 1, 2, 10), verify.Config{}); err == nil || !strings.Contains(err.Error(), "boom") {
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
	res, err := Runner(Loopback(2))(ps, cfg)
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
	if _, err := Runner(nil)(ps, verify.Config{}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := Runner(Loopback(1))(append(fleet(12, 1, 1, 2, 6), prof("X", 1, 1, 2, 6)), verify.Config{}); !errors.Is(err, verify.ErrEncoding) {
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
