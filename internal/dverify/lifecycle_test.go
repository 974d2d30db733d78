package dverify

// Tests of the worker lifecycle: a standing cluster serving one job after
// another of every kind a run can end in, and a worker that stops
// answering.

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// TestStandingClusterSequence serves, back to back on the same transports,
// a schedulable slot, a violating one, an over-budget run, the first slot
// again, a slot of the other encoding (an incompatible job: full rebuild), a
// fault-tolerant checkpointing run and the first slot once more — every way
// a run can stop followed by a re-Init of the worker it left behind. Each
// result must equal what a fresh cluster answers.
func TestStandingClusterSequence(t *testing.T) {
	// S is shallow (depth 12, 172 states): a checkpointing run pays one idle
	// tick per level, not per state.
	s := []*switching.Profile{prof("A", 3, 1, 2, 12), prof("B", 3, 1, 2, 12)}
	v := []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}
	base := verify.Config{NondetTies: true}
	overBudget := base
	overBudget.MaxStates = 40
	steps := []struct {
		name string
		ps   []*switching.Profile
		cfg  verify.Config
		ft   bool // run through FaultTolerantRunner, checkpointing
	}{
		{"S", s, base, false},
		{"V", v, base, false},
		{"S over budget", s, overBudget, false},
		{"S after a bust", s, base, false},
		{"wide V", fleet(7, 2, 1, 2, 65), base, false},
		{"S fault-tolerant", s, base, true},
		{"S after FT", s, base, false},
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
	// The reference: each step on a cluster of its own (without the
	// checkpointing, which the TestFT* matrix pins to the same answer).
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
			run := Runner(ts)
			if st.ft {
				run = FaultTolerantRunner(ts, t.TempDir())
			}
			got, err := run(st.ps, st.cfg)
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
// answers a poll — SIGSTOPped, partitioned — must end a run without fault
// tolerance in an error naming the node and the timeout, not hang it, and
// leave no goroutine behind once the transports are closed.
func TestWedgedWorkerNamedError(t *testing.T) {
	saved := meshDeathTimeout
	meshDeathTimeout = 100 * time.Millisecond
	defer func() { meshDeathTimeout = saved }()

	before := runtime.NumGoroutine()
	worker, kinds := cannedWorker(t, Response{Proto: protoVersion}, 1)
	start := time.Now()
	_, err := Verify(fleet(2, 6, 1, 2, 10), verify.Config{}, []Transport{worker})
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
}
