package dverify

// Tests of the worker lifecycle: a standing cluster serving one job after
// another of every kind a run can end in, and a worker that stops
// answering.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// TestStandingClusterSequence serves, back to back on the same transports,
// a schedulable slot, a violating one, an over-budget run, the first slot
// again, a slot that fills the word (an incompatible job: full rebuild) and
// the first slot once more — every way a run can stop followed by a
// re-Init of the worker it left behind. Each result must equal what a
// fresh cluster answers.
func TestStandingClusterSequence(t *testing.T) {
	// S is shallow (depth 12, 172 states).
	s := []*switching.Profile{prof("A", 3, 1, 2, 12), prof("B", 3, 1, 2, 12)}
	v := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	base := verify.Config{NondetTies: true}
	overBudget := base
	overBudget.MaxStates = 40
	steps := []struct {
		name string
		ps   []*switching.Profile
		cfg  verify.Config
	}{
		{"S", s, base},
		{"V", v, base},
		{"S over budget", s, overBudget},
		{"S after a bust", s, base},
		{"full-word V", fleet(7, 2, 1, 2, 64), base},
		{"S after a rebuild", s, base},
	}
	clusters := []struct {
		name string
		mk   func() []Transport
	}{
		{"loopback", func() []Transport { return Loopback(2) }},
		{"tcp", func() []Transport {
			ts, err := Dial([]string{startWorker(t), startWorker(t)}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}},
	}
	// The reference: each step on a cluster of its own.
	want, wantErr := make([]verify.Result, len(steps)), make([]error, len(steps))
	for i, st := range steps {
		want[i], wantErr[i] = verifyOver(t, 2, st.ps, st.cfg)
	}
	if !want[0].Schedulable || want[1].Schedulable || !errors.Is(wantErr[2], verify.ErrTooLarge) {
		t.Fatalf("fixture: S %+v, V %+v, over budget %v", want[0], want[1], wantErr[2])
	}
	for _, cl := range clusters {
		ts := cl.mk()
		for i, st := range steps {
			label := cl.name + ": " + st.name
			got, err := Runner(ts)(st.ps, st.cfg)
			if wantErr[i] != nil || err != nil {
				if !errors.Is(wantErr[i], verify.ErrTooLarge) || !errors.Is(err, verify.ErrTooLarge) {
					t.Fatalf("%s: standing cluster %v, fresh cluster %v", label, err, wantErr[i])
				}
				continue
			}
			checkMatchesLocal(t, label, got, want[i])
		}
		if err := Close(ts); err != nil {
			t.Errorf("%s: a transport did not outlive the sequence: %v", cl.name, err)
		}
	}
}

// TestWedgedWorkerNamedError: a worker that answers Init and then never
// answers a poll — SIGSTOPped, partitioned — is dead once meshDeathTimeout
// passes. Alone, it ends the run in an error naming the node and the
// timeout, not a hang, and leaves no goroutine behind once the transports
// are closed. Beside a live node 0, the run and the next one through the
// hook finish on node 0, and the wedged worker sees no request after the
// poll it never answered: its transport, whose Call is still blocked, is
// never called again.
func TestWedgedWorkerNamedError(t *testing.T) {
	saved := meshDeathTimeout
	meshDeathTimeout = 100 * time.Millisecond
	defer func() { meshDeathTimeout = saved }()

	before := runtime.NumGoroutine()
	worker, kinds := cannedWorker(t, Response{Proto: protoVersion}, 1)
	start := time.Now()
	_, err := Runner([]Transport{worker})(fleet(2, 6, 1, 2, 10), verify.Config{})
	if err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "no answer to a poll within 100ms") {
		t.Fatalf("want an error naming node 0 and the timeout, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the named error took %v", d)
	}
	if got := kinds(); len(got) != 2 || got[0] != KindInit || got[1] != KindPoll {
		t.Fatalf("worker saw %v, want one Init and one Poll", got)
	}
	worker.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after Close", before, runtime.NumGoroutine())
		}
	}

	ps := fleet(2, 6, 1, 2, 10)
	cfg := verify.Config{NondetTies: true}
	local, err := verify.Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Dial([]string{startWorker(t)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer Close(live)
	wedged, kinds := cannedWorker(t, Response{Proto: protoVersion}, 1)
	run := Runner([]Transport{live[0], wedged})
	for i := range 2 {
		res, err := run(ps, cfg)
		if err != nil {
			t.Fatalf("run %d beside a wedged node 1: %v", i, err)
		}
		checkMatchesLocal(t, fmt.Sprintf("run %d beside a wedged node 1", i), res, local)
	}
	if got := kinds(); !slices.Equal(got, []Kind{KindInit, KindPoll}) {
		t.Fatalf("the wedged worker saw %v, want one Init and one Poll", got)
	}
}

// TestPollAfterFinishKeepsTheRun: a finished worker answers every later
// poll with its final snapshot. A level poll sent after Finish must not
// restart it — that would wipe the run's counts and expand on closed links
// and released tables — so the reply keeps the run's Fresh and
// FreshByLevel.
func TestPollAfterFinishKeepsTheRun(t *testing.T) {
	ps := []*switching.Profile{prof("A", 3, 1, 2, 12), prof("B", 3, 1, 2, 12)}
	cfg := verify.Config{NondetTies: true}
	want, err := verify.Slot(ps, cfg)
	if err != nil || !want.Schedulable {
		t.Fatalf("fixture: %+v, %v", want, err)
	}
	ts := Loopback(1)
	defer Close(ts)
	h := handler{env: loopEnv{ts[0].(*loopTransport).group}}
	defer h.reset()
	job := &Job{Proto: protoVersion, NumNodes: 1, NondetTies: true, Session: 1,
		Profiles: []switching.Profile{*ps[0], *ps[1]}}
	if r := h.handle(&Request{Kind: KindInit, Job: job}); r.Err != "" {
		t.Fatal(r.Err)
	}
	poll := func(ctl Control) *Response {
		t.Helper()
		r := h.handle(&Request{Kind: KindPoll, Ctl: &ctl})
		if r.Err != "" {
			t.Fatal(r.Err)
		}
		return r
	}
	for level := 0; ; {
		r := poll(Control{Level: level})
		if len(r.SentTo) == 0 {
			continue // interim: poll the level again
		}
		if r.Next == 0 {
			break
		}
		level++
	}
	fin := poll(Control{Finish: true})
	fresh, byLevel := fin.Fresh, slices.Clone(fin.FreshByLevel)
	if fresh != want.States {
		t.Fatalf("Finish reply: %d fresh states, want the local search's %d", fresh, want.States)
	}
	for _, ctl := range []Control{{Level: 0}, {Level: 1}} {
		if r := poll(ctl); r.Fresh != fresh || !slices.Equal(r.FreshByLevel, byLevel) {
			t.Fatalf("poll %+v after Finish: %d fresh states by level %v, want the run's %d by %v",
				ctl, r.Fresh, r.FreshByLevel, fresh, byLevel)
		}
	}
}
