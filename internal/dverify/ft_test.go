package dverify

// Fault-matrix tests for the distributed search: kill a worker at a
// deterministic level across {loopback, TCP} × {2, 4 nodes}, and assert
// the run still finishes with a verdict, state count, depth and minimal
// violator bit-identical to the local parallel search, its failover
// handing exactly the victim's shards to the survivors — plus the
// double-fault, severed-link, death-timeout and run-after-death paths.
// Every recovery restarts the search on the survivors.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// ftCase is one profile set of the fault matrix: loosePair explores a
// deep schedulable space (recovery mid-search, exhaustive counts must
// survive the restart), overload2 violates near the root (recovery
// races the violation short-circuit).
var ftCases = []struct {
	name    string
	ps      func() []*switching.Profile
	atLevel int // fire the kill when the coordinator first knows this level
}{
	{"loosePair", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	}, 2},
	{"overload2", func() []*switching.Profile {
		return []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	}, 0},
}

// ftConfig is the shared configuration of the fault-injected runs.
func ftConfig(trace *obs.Trace) verify.Config {
	return verify.Config{NondetTies: true, Workers: 2, RunTrace: trace}
}

// runFT runs one fault-injected verification over a fresh loopback
// cluster of two-lane nodes and asserts the exact-equivalence acceptance
// criterion.
func runFT(t *testing.T, label string, ps []*switching.Profile, nodes int, mkPlan func(ts []Transport) *faultPlan) *obs.Trace {
	t.Helper()
	return runFTLanes(t, label, ps, nodes, 2, mkPlan)
}

// runFTLanes is runFT on nodes of the given lane count.
func runFTLanes(t *testing.T, label string, ps []*switching.Profile, nodes, lanes int, mkPlan func(ts []Transport) *faultPlan) *obs.Trace {
	t.Helper()
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatalf("%s: local: %v", label, err)
	}
	trace := obs.NewTrace("")
	cfg := ftConfig(trace)
	cfg.Workers = lanes
	ts := Loopback(nodes)
	defer Close(ts)
	plan := mkPlan(ts)
	dist, err := runner(ts, plan)(ps, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkMatchesLocal(t, label, dist, local)
	fired := false
	for _, f := range plan.faults {
		fired = fired || f.fired
	}
	if fired && len(trace.Failovers) == 0 {
		t.Errorf("%s: fault fired but the trace recorded no failover", label)
	}
	return trace
}

// TestFTKillOneWorker is the core acceptance matrix on loopback
// clusters: for 2- and 4-node clusters of one- and two-lane nodes, first
// and last victim, on a deep schedulable space and a near-root violation,
// killing the victim at a deterministic level must leave the verdict,
// counts, depth and minimal violator bit-identical to the local search,
// through one failover: the first restart, with the victim dead.
func TestFTKillOneWorker(t *testing.T) {
	recBefore := obsRecoveries.Value()
	for _, tc := range ftCases {
		for _, nodes := range []int{2, 4} {
			for _, lanes := range []int{1, 2} {
				for _, victim := range []int{0, nodes - 1} {
					label := fmt.Sprintf("%s: nodes=%d lanes=%d victim=%d", tc.name, nodes, lanes, victim)
					trace := runFTLanes(t, label, tc.ps(), nodes, lanes, func(ts []Transport) *faultPlan {
						lt := ts[victim].(*loopTransport)
						return &faultPlan{faults: []fault{{atLevel: tc.atLevel, kill: func() { close(lt.kill) }}}}
					})
					want := obs.FailoverSpan{Restart: 1, Dead: []int{victim}}
					if len(trace.Failovers) != 1 {
						t.Errorf("%s: %d failovers, want 1", label, len(trace.Failovers))
					} else if f := trace.Failovers[0]; f.Restart != want.Restart || !slices.Equal(f.Dead, want.Dead) {
						t.Errorf("%s: failover %+v, want restart %d, dead %v", label, f, want.Restart, want.Dead)
					}
				}
			}
		}
	}
	if obsRecoveries.Value() == recBefore {
		t.Error("recovery counter did not move across the kill matrix")
	}
}

// TestFTKillEveryVictim sweeps every victim slot of a 4-node mesh — the
// "killing any one worker" acceptance clause, including interior nodes
// whose shard range has live neighbours on both sides.
func TestFTKillEveryVictim(t *testing.T) {
	ps := fleet(6, 5, 2, 4, 20)
	for victim := 0; victim < 4; victim++ {
		label := fmt.Sprintf("narrow6: nodes=4 victim=%d", victim)
		runFT(t, label, ps, 4, func(ts []Transport) *faultPlan {
			lt := ts[victim].(*loopTransport)
			return &faultPlan{faults: []fault{{atLevel: 3, kill: func() { close(lt.kill) }}}}
		})
	}
}

// TestFTDoubleFault: a second worker dies after the first death. The
// simultaneous variant loses two nodes in one round; the sequential
// variant arms the second kill to fire only after the first restart.
func TestFTDoubleFault(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	t.Run("simultaneous", func(t *testing.T) {
		runFT(t, "double fault (same round)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{{atLevel: 2, kill: func() { close(l1.kill); close(l2.kill) }}}}
		})
	})
	t.Run("sequential", func(t *testing.T) {
		trace := runFT(t, "double fault (after a restart)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{
				{atLevel: 2, kill: func() { close(l1.kill) }},
				{atLevel: 0, afterRestarts: 1, kill: func() { close(l2.kill) }},
			}}
		})
		if len(trace.Failovers) < 2 {
			t.Errorf("want two failovers (one per death), got %d", len(trace.Failovers))
		}
	})
}

// TestFTDegradedNoCheckpointDir: a recovery restarts the search on the
// survivors and finishes exactly, and writes no file on the way: the run's
// temporary directory is left empty.
func TestFTDegradedNoCheckpointDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	ts := Loopback(2)
	defer Close(ts)
	lt := ts[1].(*loopTransport)
	plan := &faultPlan{faults: []fault{{atLevel: 2, kill: func() { close(lt.kill) }}}}
	dist, err := runner(ts, plan)(ps, ftConfig(trace))
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "restart on the survivors", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("no failover recorded")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("a recovered run left %d entries in its temporary directory (%v)", len(left), err)
	}
}

// TestFTHookSurvivesPerRunConfig: recovery belongs to the hook Runner
// builds, not to the Config it is handed. Like the admission service's
// verify, the run builds a fresh Config, hangs the hook on it and calls
// verify.Slot; a node killed mid-S1 must still be recovered from, with
// S1's exact counts.
func TestFTHookSurvivesPerRunConfig(t *testing.T) {
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	ts := Loopback(3)
	defer Close(ts)
	plan := &faultPlan{faults: []fault{{atLevel: 25, kill: func() { close(ts[1].(*loopTransport).kill) }}}}
	trace := obs.NewTrace("")
	cfg := verify.Config{NondetTies: true, Workers: 2, RunTrace: trace}
	cfg.Distributed = runner(ts, plan)
	res, err := verify.Slot(s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable || res.States != 1440712 || res.Transitions != 1822844 || res.Depth != 50 {
		t.Errorf("S1 through a recovery: %+v, want schedulable, 1440712 states, 1822844 transitions, depth 50", res)
	}
	if !plan.faults[0].fired || len(trace.Failovers) != 1 {
		t.Fatalf("kill fired %v, %d failovers; want a kill and one failover", plan.faults[0].fired, len(trace.Failovers))
	}
}

// TestFTSeverLink: a severed worker↔worker link (sends fail, both ends
// alive) is reported by the sender and treated by the coordinator as
// the death of the far end — the run converges on the surviving
// component instead of hanging.
func TestFTSeverLink(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	cfg := ftConfig(trace)
	ts := Loopback(2)
	defer Close(ts)
	var severed atomic.Bool
	loopGroupOf(t, ts).failSend = func(from, to int) error {
		if severed.Load() && from == 0 && to == 1 {
			return errors.New("injected: link severed")
		}
		return nil
	}
	plan := &faultPlan{faults: []fault{{atLevel: 2, kill: func() { severed.Store(true) }}}}
	dist, err := runner(ts, plan)(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "severed link", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("severed link did not surface as a failover")
	}
}

// TestFTDelayedDeliveryNoFalsePositive: delayed, reordered deliveries
// must recover nothing — slow is not dead. The run completes exactly,
// with zero failovers.
func TestFTDelayedDeliveryNoFalsePositive(t *testing.T) {
	ps := fleet(6, 5, 2, 4, 20)
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 4} {
		trace := obs.NewTrace("")
		cfg := ftConfig(trace)
		ts := Loopback(nodes)
		g := loopGroupOf(t, ts)
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(nodes) * 1317))
		g.deliver = func(from, to int, b meshBatch, push func(meshBatch)) bool {
			mu.Lock()
			d := time.Duration(rng.Intn(3)) * time.Millisecond
			mu.Unlock()
			time.AfterFunc(d, func() { push(b) })
			return true
		}
		dist, err := Runner(ts)(ps, cfg)
		Close(ts)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		checkMatchesLocal(t, fmt.Sprintf("delayed delivery nodes=%d", nodes), dist, local)
		if len(trace.Failovers) != 0 {
			t.Errorf("nodes=%d: delay alone must not trigger recovery, got %d failovers", nodes, len(trace.Failovers))
		}
	}
}

// TestFTTCPKill runs the kill matrix over real TCP daemons, on 2 and 4
// nodes, with the victim's listener and
// every accepted connection severed mid-run — the in-process stand-in for
// SIGKILLing a verifyd.
func TestFTTCPKill(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	matrix := []struct {
		nodes  int
		victim int
	}{
		{2, 1},
		{4, 2},
	}
	for _, m := range matrix {
		label := fmt.Sprintf("tcp nodes=%d victim=%d", m.nodes, m.victim)
		listeners := make([]*trackingListener, m.nodes)
		addrs := make([]string, m.nodes)
		for i := range listeners {
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l := &trackingListener{Listener: raw}
			listeners[i] = l
			addrs[i] = raw.Addr().String()
			go NewServer(l, nil).Serve()
			t.Cleanup(func() { l.kill() })
		}
		ts, err := Dial(addrs, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTrace("")
		cfg := ftConfig(trace)
		victim := listeners[m.victim]
		plan := &faultPlan{faults: []fault{{atLevel: 2, kill: victim.kill}}}
		done := make(chan struct{})
		var dist verify.Result
		var verr error
		go func() {
			dist, verr = runner(ts, plan)(ps, cfg)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: recovery hung", label)
		}
		Close(ts)
		if verr != nil {
			t.Fatalf("%s: %v", label, verr)
		}
		checkMatchesLocal(t, label, dist, local)
		if plan.faults[0].fired && len(trace.Failovers) == 0 {
			t.Errorf("%s: kill fired but no failover recorded", label)
		}
	}
}

// TestRunsAfterDeathStayExact: a dead worker leaves the cluster for good.
// On three TCP workers and on Loopback(3), with a worker killed at level 2
// of the first run or between the first and second (its death found at
// the next Init), the run that meets the death and every later run through
// the same hook — a schedulable, a violating and the schedulable set again
// — equal the local search, and only the run that meets it restarts.
func TestRunsAfterDeathStayExact(t *testing.T) {
	sets := []func() []*switching.Profile{ftCases[0].ps, ftCases[1].ps, ftCases[0].ps}
	clusters := []struct {
		name string
		mk   func() (ts []Transport, kill func())
	}{
		{"tcp3", func() ([]Transport, func()) {
			addrs := make([]string, 3)
			var victim *trackingListener
			for i := range addrs {
				raw, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				l := &trackingListener{Listener: raw}
				t.Cleanup(l.kill)
				go NewServer(l, nil).Serve()
				addrs[i] = raw.Addr().String()
				if i == 1 {
					victim = l
				}
			}
			ts, err := Dial(addrs, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return ts, victim.kill
		}},
		{"loopback3", func() ([]Transport, func()) {
			ts := Loopback(3)
			return ts, func() { close(ts[1].(*loopTransport).kill) }
		}},
	}
	for _, cl := range clusters {
		for _, between := range []bool{false, true} {
			ts, kill := cl.mk()
			plan, dies := &faultPlan{faults: []fault{{atLevel: 2, kill: kill}}}, 0
			if between {
				plan, dies = nil, 1
			}
			run := runner(ts, plan)
			for i, set := range sets {
				label := fmt.Sprintf("%s, kill between runs %v: run %d", cl.name, between, i)
				if between && i == dies {
					kill()
				}
				local, err := verify.Slot(set(), verify.Config{NondetTies: true, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				trace := obs.NewTrace("")
				dist, err := run(set(), ftConfig(trace))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkMatchesLocal(t, label, dist, local)
				if want := i == dies; (len(trace.Failovers) == 1) != want || len(trace.Failovers) > 1 {
					t.Errorf("%s: %d failovers, want one only in run %d", label, len(trace.Failovers), dies)
				}
			}
			Close(ts)
		}
	}
}

// TestFTPollerDeathTimeout pins the liveness layer in isolation: a
// worker that stops answering is declared dead once meshDeathTimeout
// elapses, with the timeout as its cause, while the answering node's
// reply stands; once the poller closes, releasing the wedged call ends
// both call goroutines.
func TestFTPollerDeathTimeout(t *testing.T) {
	saved := meshDeathTimeout
	meshDeathTimeout = 100 * time.Millisecond
	defer func() { meshDeathTimeout = saved }()

	// hang answers its first call normally, then blocks until released — a
	// wedged worker, from the coordinator's point of view.
	release, calls := make(chan struct{}), 0
	hang := transportFunc(func(*Request) (*Response, error) {
		if calls++; calls >= 2 {
			<-release
		}
		return &Response{Proto: protoVersion}, nil
	})
	ok := transportFunc(func(*Request) (*Response, error) { return &Response{Proto: protoVersion}, nil })
	before := runtime.NumGoroutine()
	p := newMeshPoller([]Transport{ok, hang})
	resps := make([]*Response, 2)

	req := func(int) *Request { return &Request{Kind: KindPoll, Ctl: &Control{}} }
	if dead := p.round(resps, nil, req); len(dead) != 0 {
		t.Fatalf("healthy round declared deaths: %v", dead)
	}
	if dead := p.round(resps, nil, req); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("hung worker not declared dead: %v", dead)
	}
	if err := p.errs[1]; err == nil || !strings.Contains(err.Error(), "no answer to a poll within 100ms") {
		t.Fatalf("cause of the death: %v", err)
	}
	if resps[0] == nil || resps[1] != nil {
		t.Fatalf("after the death: survivor's answer %v, wedged node's %v", resps[0], resps[1])
	}
	p.close()
	close(release)
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the poller, %d after it closed", before, runtime.NumGoroutine())
		}
	}
}
