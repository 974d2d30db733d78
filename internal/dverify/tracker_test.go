package dverify

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// TestMeshTotalsAreDerived: a worker answers with its per-level commits
// and per-peer shipments only, and every total of a run is derived from
// them. On two and four loopback nodes and on two TCP workers, for S1, for
// V5 (a violation at depth 12) and for S1 over a per-node budget, the
// result's States is the nodes' FreshByLevel summed through Depth (the
// trace's level spans) and the local search's count, the states each node
// shipped sum to RoutedStates as the states shipped to each node and the
// per-link counts do, and both byte counts are 8 B per routed state.
func TestMeshTotalsAreDerived(t *testing.T) {
	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		t.Fatal(err)
	}
	v5, err := plants.ProfileList("C1", "C5", "C4", "C3", "C6")
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
	}{{"Loopback(2)", Loopback(2)}, {"Loopback(4)", Loopback(4)}, {"2 TCP workers", tcp}}
	for _, c := range clusters {
		defer Close(c.ts)
	}
	for _, c := range clusters {
		run := Runner(c.ts)
		for _, tc := range []struct {
			name      string
			maxStates int
			ps        []*switching.Profile
		}{{"S1", 0, s1}, {"V5", 0, v5}, {"S1 over budget", 200_000, s1}} {
			label := fmt.Sprintf("%s, %s", c.name, tc.name)
			tr := obs.NewTrace("")
			res, err := run(tc.ps, verify.Config{NondetTies: true, Workers: 2, MaxStates: tc.maxStates, RunTrace: tr})
			switch {
			case tc.maxStates > 0:
				if !errors.Is(err, verify.ErrTooLarge) || res.States <= tc.maxStates {
					t.Fatalf("%s: %d states, %v; want a budget bust past one node's %d", label, res.States, err, tc.maxStates)
				}
			case err != nil:
				t.Fatalf("%s: %v", label, err)
			case tc.name == "S1" && (!res.Schedulable || res.States != 1_440_712 || res.Transitions != 1_822_844 || res.Depth != 50):
				t.Fatalf("%s: %+v, want S1's 1440712 states, 1822844 transitions, depth 50", label, res)
			case tc.name == "V5" && (res.Schedulable || res.States != 478_335 || res.Depth != 12 || tc.ps[res.Violator].Name != "C4"):
				t.Fatalf("%s: %+v, want C4 at depth 12 after 478335 states", label, res)
			}
			if got := tr.LevelStates(); got != res.States {
				t.Errorf("%s: the nodes commit %d states through depth %d, the result counts %d", label, got, res.Depth, res.States)
			}
			if len(tr.Cluster) != len(c.ts) {
				t.Fatalf("%s: %d node spans", label, len(tr.Cluster))
			}
			fresh, sent, recv, links := 0, 0, 0, 0
			for _, n := range tr.Cluster {
				fresh, sent, recv = fresh+n.States, sent+n.Sent, recv+n.Recv
			}
			for _, l := range res.Wire.Links {
				links += l.States
			}
			if res.Schedulable && fresh != res.States || !res.Schedulable && fresh < res.States {
				t.Errorf("%s: the nodes commit %d states, the result counts %d", label, fresh, res.States)
			}
			w := res.Wire
			if w.RoutedStates == 0 || sent != w.RoutedStates || recv != w.RoutedStates || links != w.RoutedStates {
				t.Errorf("%s: %d states shipped, %d received, %d over links; %d routed", label, sent, recv, links, w.RoutedStates)
			}
			if w.RawBytes != 8*w.RoutedStates || w.WireBytes != w.RawBytes {
				t.Errorf("%s: %d raw and %d wire bytes for %d routed states", label, w.RawBytes, w.WireBytes, w.RoutedStates)
			}
		}
	}
}
