package dverify

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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
// V5 (a violation at depth 12) and for S1 over a budget, the result's
// Levels are the nodes' FreshByLevel summed through Depth (and, on a bust,
// the level that passed the budget), sum to its States (the local search's
// count) and are the trace's level spans,
// the states each node
// shipped sum to RoutedStates as the states shipped to each node and the
// per-link counts do, and both byte counts are 8 B per routed state. The
// same sums hold across a recovery (the last case).
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
			res, err := verify.Slot(tc.ps, verify.Config{NondetTies: true, Workers: 2, MaxStates: tc.maxStates, RunTrace: tr, Distributed: run})
			switch {
			case tc.maxStates > 0:
				if !errors.Is(err, verify.ErrTooLarge) || res.States <= tc.maxStates {
					t.Fatalf("%s: %d states, %v; want a budget bust past %d", label, res.States, err, tc.maxStates)
				}
			case err != nil:
				t.Fatalf("%s: %v", label, err)
			case tc.name == "S1" && (!res.Schedulable || res.States != 1_440_712 || res.Transitions != 1_822_844 || res.Depth != 50):
				t.Fatalf("%s: %+v, want S1's 1440712 states, 1822844 transitions, depth 50", label, res)
			case tc.name == "V5" && (res.Schedulable || res.States != 478_335 || res.Depth != 12 || tc.ps[res.Violator].Name != "C4"):
				t.Fatalf("%s: %+v, want C4 at depth 12 after 478335 states", label, res)
			}
			traceHasLevels(t, label, tr, res)
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
			if err == nil && res.Schedulable && fresh != res.States || fresh < res.States {
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

	// A recovery: S1 on three loopback nodes, node 1 killed at level 20.
	// The aborted attempt's shipments and the survivors' renumbered attempt
	// count per link between cluster nodes, so the result's links, the
	// per-link metric and the trace's links each sum to RoutedStates, and
	// the final attempt's node spans and links name the survivors 0 and 2.
	label := "Loopback(3), S1, node 1 killed at level 20"
	ts := Loopback(3)
	defer Close(ts)
	plan := &faultPlan{faults: []fault{{atLevel: 20, kill: func() { close(ts[1].(*loopTransport).kill) }}}}
	tr := obs.NewTrace("")
	v, err := verify.New(s1, verify.Config{NondetTies: true, Workers: 2, RunTrace: tr, Distributed: runner(ts, plan)})
	if err != nil {
		t.Fatal(err)
	}
	before := wireLinkTotals(t)
	res, err := v.Run()
	if err != nil || !res.Schedulable || res.States != 1_440_712 || res.Transitions != 1_822_844 || res.Depth != 50 {
		t.Fatalf("%s: %+v, %v; want S1's 1440712 states, 1822844 transitions, depth 50", label, res, err)
	}
	if len(tr.Failovers) != 1 {
		t.Fatalf("%s: %d failovers, want 1", label, len(tr.Failovers))
	}
	after := wireLinkTotals(t)
	links, metric, traced := 0, 0, 0
	from := map[int]int{}
	for _, l := range res.Wire.Links {
		if l.From == l.To || l.From < 0 || l.From > 2 || l.To < 0 || l.To > 2 {
			t.Errorf("%s: link %d->%d names no pair of the cluster's three nodes", label, l.From, l.To)
		}
		links += l.States
		from[l.From] += l.States
		name := fmt.Sprintf("%d->%d", l.From, l.To)
		metric += after[name] - before[name]
	}
	for _, l := range tr.Links {
		traced += l.States
	}
	if w := res.Wire.RoutedStates; links != w || metric != w || traced != w {
		t.Errorf("%s: %d states over the result's links, %d over the metric's, %d over the trace's; %d routed", label, links, metric, traced, w)
	}
	if len(tr.Cluster) != 2 {
		t.Fatalf("%s: %d node spans, want the two survivors'", label, len(tr.Cluster))
	}
	for i, n := range tr.Cluster {
		if want := 2 * i; n.Node != want || n.Sent == 0 || n.Sent > from[n.Node] {
			t.Errorf("%s: span %d is node %d, which shipped %d states in the last attempt and %d over its links in all; want node %d, within its links",
				label, i, n.Node, n.Sent, from[n.Node], want)
		}
	}
}

// wireLinkTotals scrapes tightcps_verify_wire_states_total by its link
// label ("0->1").
func wireLinkTotals(t *testing.T) map[string]int {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	totals := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `tightcps_verify_wire_states_total{link="`)
		if !ok {
			continue
		}
		link, value, _ := strings.Cut(rest, `"} `)
		n, err := strconv.Atoi(value)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		totals[link] = n
	}
	return totals
}
