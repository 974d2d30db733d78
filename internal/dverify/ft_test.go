package dverify

// Fault-matrix tests for the fault-tolerant distributed search: kill a
// worker at a deterministic level across {loopback, TCP} × {2, 4 nodes},
// and assert the run still finishes with a verdict, state count, depth and
// minimal violator bit-identical to the local parallel search, its failover
// handing exactly the victim's shards to the survivors — plus the
// double-fault, crash-during-checkpoint, severed-link, death-timeout and
// degraded (no checkpoint directory) recovery paths.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
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
// survive the rollback), overload2 violates near the root (recovery
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

// ftConfig is the shared configuration of the fault-tolerant runs.
func ftConfig(trace *obs.Trace) verify.Config {
	return verify.Config{NondetTies: true, Workers: 2, RunTrace: trace}
}

// checkpointed is fault tolerance with a checkpoint directory of the test's.
func checkpointed(t *testing.T) *tolerance { return &tolerance{t.TempDir()} }

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
	dist, err := verifyWithFaults(ps, cfg, ts[:nodes], checkpointed(t), plan)
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
// through one failover: era 1, the victim dead, and the victim's
// contiguous share of the shards (64/nodes) reassigned to the survivors.
func TestFTKillOneWorker(t *testing.T) {
	recBefore := obsRecoveries.Value()
	for _, tc := range ftCases {
		for _, nodes := range []int{2, 4} {
			for _, lanes := range []int{1, 2} {
				for _, victim := range []int{0, nodes - 1} {
					label := fmt.Sprintf("%s: nodes=%d lanes=%d victim=%d", tc.name, nodes, lanes, victim)
					trace := runFTLanes(t, label, tc.ps(), nodes, lanes, func(ts []Transport) *faultPlan {
						lt := ts[victim].(*loopTransport)
						return &faultPlan{faults: []fault{{atLevel: tc.atLevel, kill: lt.die}}}
					})
					want := obs.FailoverSpan{Era: 1, Dead: []int{victim}, Shards: verify.NumShards / nodes}
					if len(trace.Failovers) != 1 {
						t.Errorf("%s: %d failovers, want 1", label, len(trace.Failovers))
					} else if f := trace.Failovers[0]; f.Era != want.Era || !slices.Equal(f.Dead, want.Dead) || f.Shards != want.Shards {
						t.Errorf("%s: failover %+v, want era %d, dead %v, %d shards", label, f, want.Era, want.Dead, want.Shards)
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
			return &faultPlan{faults: []fault{{atLevel: 3, kill: lt.die}}}
		})
	}
}

// TestFTDoubleFault: a second worker dies while the takeover from the
// first death is still settling. The simultaneous variant loses two
// nodes in one round; the sequential variant arms the second kill to
// fire only after the first recovery completed.
func TestFTDoubleFault(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	t.Run("simultaneous", func(t *testing.T) {
		runFT(t, "double fault (same round)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{{atLevel: 2, kill: func() { l1.die(); l2.die() }}}}
		})
	})
	t.Run("sequential", func(t *testing.T) {
		trace := runFT(t, "double fault (mid-takeover)", ps, 4, func(ts []Transport) *faultPlan {
			l1, l2 := ts[1].(*loopTransport), ts[2].(*loopTransport)
			return &faultPlan{faults: []fault{
				{atLevel: 2, kill: l1.die},
				{atLevel: 0, afterRecoveries: 1, kill: l2.die},
			}}
		})
		if len(trace.Failovers) < 2 {
			t.Errorf("want two failovers (one per death), got %d", len(trace.Failovers))
		}
	})
}

// TestFTCrashDuringCheckpoint: a worker whose checkpoint sweep fails
// mid-level (disk death) reports the error, is declared dead, and the
// survivors restore from its last *completed* level — the tmp+rename
// segment discipline means the partial sweep left nothing misleading.
func TestFTCrashDuringCheckpoint(t *testing.T) {
	ckptWriteHook = func(node, level, shard int) error {
		if node == 1 && level >= 2 {
			return errors.New("injected: disk gone mid-sweep")
		}
		return nil
	}
	defer func() { ckptWriteHook = nil }()
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	trace := runFT(t, "crash during checkpoint", ps, 4, func(ts []Transport) *faultPlan {
		return &faultPlan{} // the hook is the fault; no transport kill
	})
	if len(trace.Failovers) == 0 {
		t.Fatal("checkpoint write failure did not surface as a failover")
	}
}

// TestFTDegradedNoCheckpointDir: fault tolerance without a checkpoint
// directory still finishes exactly — recovery degrades to a full
// restart of the search on the survivors (cut −1).
func TestFTDegradedNoCheckpointDir(t *testing.T) {
	ps := []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}
	local, err := verify.Slot(ps, verify.Config{NondetTies: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	ts := Loopback(2)
	defer Close(ts)
	lt := ts[1].(*loopTransport)
	plan := &faultPlan{faults: []fault{{atLevel: 2, kill: lt.die}}}
	dist, err := verifyWithFaults(ps, ftConfig(trace), ts, &tolerance{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "degraded (no checkpoint dir)", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("no failover recorded")
	}
	if got := trace.Failovers[0].Cut; got != -1 {
		t.Errorf("without checkpoints the cut must be -1 (full restart), got %d", got)
	}
}

// TestFTHookSurvivesPerRunConfig: fault tolerance belongs to the hook
// FaultTolerantRunner builds, not to the Config it is handed. Like the
// admission service's verifyBackend, the run builds a fresh Config, hangs
// the hook on it and calls verify.Slot; a node killed mid-S1 must still be
// recovered from, with S1's exact counts.
func TestFTHookSurvivesPerRunConfig(t *testing.T) {
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	ts := Loopback(3)
	defer Close(ts)
	plan := &faultPlan{faults: []fault{{atLevel: 25, kill: ts[1].(*loopTransport).die}}}
	trace := obs.NewTrace("")
	cfg := verify.Config{NondetTies: true, Workers: 2, RunTrace: trace}
	cfg.Distributed = runner(ts, checkpointed(t), plan)
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
	if cut := trace.Failovers[0].Cut; cut < 0 {
		t.Errorf("recovery restarted the search (cut %d): the hook lost the checkpoint directory", cut)
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
	dist, err := verifyWithFaults(ps, cfg, ts, checkpointed(t), plan)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesLocal(t, "severed link", dist, local)
	if len(trace.Failovers) == 0 {
		t.Fatal("severed link did not surface as a failover")
	}
}

// TestFTDelayedDeliveryNoFalsePositive: delayed, reordered deliveries
// under fault tolerance must recover nothing — slow is not dead. The
// run completes exactly, with zero failovers.
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
		dist, err := FaultTolerantRunner(ts, t.TempDir())(ps, cfg)
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

// TestFTTCPKill runs the kill matrix over real TCP daemons sharing one
// checkpoint directory, on 2 and 4 nodes, with the victim's listener and
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
			dist, verr = verifyWithFaults(ps, cfg, ts, checkpointed(t), plan)
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

// TestFTPollerDeathTimeout pins the liveness layer in isolation: a
// worker that stops answering is declared dead once meshDeathTimeout
// elapses, its eventual late answer is discarded by the sequence check,
// and the survivors' rounds continue unharmed.
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
	p := newMeshPoller([]Transport{ok, hang})
	defer p.close()
	resps := make([]*Response, 2)

	req := func(int) *Request { return &Request{Kind: KindPoll, Ctl: &Control{}} }
	if dead := p.round(resps, nil, req); len(dead) != 0 {
		t.Fatalf("healthy round declared deaths: %v", dead)
	}
	if dead := p.round(resps, nil, req); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("hung worker not declared dead: %v", dead)
	}
	p.evict(1)

	// Release the wedged call: its late answer must be discarded, not
	// misattributed to a later round.
	close(release)
	for i := 0; i < 3; i++ {
		if dead := p.round(resps, nil, req); len(dead) != 0 {
			t.Fatalf("round %d after eviction declared deaths: %v", i, dead)
		}
		if resps[1] != nil {
			t.Fatal("evicted node produced a response")
		}
		if resps[0] == nil {
			t.Fatal("survivor's response went missing")
		}
	}
}
