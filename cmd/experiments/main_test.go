package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"tightcps/internal/admit"
	"tightcps/internal/cli"
	"tightcps/internal/dverify"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// experimentsCmd runs the command in process and returns its exit code
// and both streams.
func experimentsCmd(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("experiments", run(args, &o, &e), &e)
	return code, o.String(), e.String()
}

// TestFlagConflicts: every combination the command refuses exits 2 with a
// message naming the conflict, before any experiment runs.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"", "no experiment selected"},
		{"-synthetic -1", "-synthetic must be ≥ 0"},
		{"-granularity-sweep 1,2,1", "-granularity-sweep requires -synthetic N"},
		{"-synthetic 5 -granularity-sweep 1,2,1 -cachedir d", "-cachedir applies to the plain -synthetic sweep"},
		{"-synthetic 5 -granularity-sweep 3,1,1", "wants 1 ≤ lo ≤ hi"},
		{"-table1 -json", "-json applies to -verifytime alone"},
		{"-table1 -ft", "-ft is a distributed-run flag; it needs -nodes or -connect"},
		{"-table1 -nodes 2 -ft -ft" + "dir d", "flag provided but not defined: -ft" + "dir"},
		{"-table1 -nodes 2 -connect 127.0.0.1:1", "-nodes and -connect are mutually exclusive"},
		{"-table1 -workers -1", "-workers must be ≥ 0"},
		{"-table2", "flag provided but not defined: -table2"},
	} {
		code, stdout, stderr := experimentsCmd(strings.Fields(tc.args)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("experiments %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestTable1AndMapping: Table 1's C1 row, and the Sec. 5 result — the six
// case-study applications on 2 slots against the calibrated baseline's 4.
func TestTable1AndMapping(t *testing.T) {
	code, stdout, stderr := experimentsCmd("-table1", "-mapping")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"[3 4 3 3 3 3 3 3 3 4 4 5]",
		"proposed (first-fit + exact model checking): 2 slots [[C1 C5 C4 C3] [C6 C2]]",
		"baseline [9], calibrated reconstruction:     4 slots",
		"saving vs calibrated baseline: 50% (paper reports 50%)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestSynthetic: the seeded 30-application fleet takes 8 slots, on the
// local engine and on a two-node loopback mesh.
func TestSynthetic(t *testing.T) {
	for _, tc := range []struct {
		backend []string
		want    []string
	}{
		{nil, []string{"workers="}},
		{[]string{"-nodes", "2"}, []string{"distributed verification: 2 loopback workers\n", "nodes=2]", "wire: routed="}},
	} {
		args := append([]string{"-synthetic", "30", "-seed", "1", "-maxstates", "200000"}, tc.backend...)
		code, stdout, stderr := experimentsCmd(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		for _, want := range append(tc.want, "first-fit: 8 slots for 30 applications") {
			if !strings.Contains(stdout, want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, stdout)
			}
		}
	}
}

// TestVerifyTimeOnCluster: the verification-time study runs on the cluster
// the backend flags name, so its traces report the mesh. (S2 only: S1 is
// 1.4 M states.)
func TestVerifyTimeOnCluster(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	backend := cli.BackendFlags(fs)
	if err := fs.Parse([]string{"-nodes", "2"}); err != nil {
		t.Fatal(err)
	}
	cl, err := backend.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var out bytes.Buffer
	x := &experiments{out: &out, cl: cl}
	if err := x.verifyTime([][]string{{"C6", "C2"}}, true); err != nil {
		t.Fatal(err)
	}
	type trace struct {
		Backend string
		Nodes   int
		States  int
	}
	var reports []struct{ Exact trace }
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	want := []struct{ Exact trace }{{trace{"mesh", 2, 10201}}}
	if len(reports) != 1 || reports[0] != want[0] {
		t.Errorf("traces %+v, want %+v", reports, want)
	}
}

// TestBudgetedSweepStoreIsNotTheServiceStore: a budgeted sweep stores the
// conservative rejects of its busted checks. An admission service on a
// cluster of the same size, with the same budget and cache directory, must
// not serve one of them as a verdict: every pair of archetypes it answers,
// it answers as the exact search does.
func TestBudgetedSweepStoreIsNotTheServiceStore(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := experimentsCmd("-synthetic", "30", "-seed", "1", "-nodes", "2", "-maxstates", "200", "-cachedir", dir); code != 0 {
		t.Fatalf("sweep: exit %d: %s", code, stderr)
	}
	ts := dverify.Loopback(2)
	defer dverify.Close(ts)
	svc := admit.New(admit.Options{Backend: dverify.Runner(ts), BackendNodes: 2, MaxStates: 200, CacheDir: dir})
	defer svc.Drain()

	x := &experiments{out: io.Discard}
	var arch []*switching.Profile
	for _, p := range x.archetypeProfiles(plants.Synthetic(plants.SyntheticOptions{N: 30, Seed: 1}), 1, false) {
		if p != nil {
			arch = append(arch, p)
		}
	}
	answered := 0
	for i := range arch {
		for _, b := range arch[i:] {
			set := []*switching.Profile{arch[i], b}
			resp, status := svc.Admit(&admit.AdmitRequest{Profiles: []admit.ProfileJSON{admit.ProfileJSONOf(set[0]), admit.ProfileJSONOf(set[1])}})
			if status != http.StatusOK {
				continue // over the service's budget: no verdict, which is sound
			}
			answered++
			exact, err := verify.Slot(set, verify.Config{NondetTies: true})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Verdict.Schedulable != exact.Schedulable {
				t.Errorf("%s + %s: service says schedulable=%v (warm=%v), the exact search %v in %d states",
					set[0].Name, set[1].Name, resp.Verdict.Schedulable, resp.Warm, exact.Schedulable, exact.States)
			}
		}
	}
	if answered == 0 {
		t.Fatal("the service answered no pair within its budget")
	}
}
