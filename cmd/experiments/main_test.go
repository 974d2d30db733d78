package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"regexp"
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

// tcpWorkers starts n worker servers, verifyd's worker plane, on ephemeral
// ports for the length of the test and returns them as a -connect list.
func tcpWorkers(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := dverify.NewServer(l, nil)
		go srv.Serve()
		t.Cleanup(srv.Shutdown)
		addrs[i] = l.Addr().String()
	}
	return strings.Join(addrs, ",")
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
		{"-table1 -ft", "flag provided but not defined: -ft"},
		{"-table1 -retries 3", "flag provided but not defined: -retries"},
		{"-table1 -breaker 2", "flag provided but not defined: -breaker"},
		{"-table1 -connect 127.0.0.1:1 -ft" + "dir d", "flag provided but not defined: -ft" + "dir"},
		{"-table1 -nodes 2", "flag provided but not defined: -nodes"},
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
// local engine and over two TCP workers.
func TestSynthetic(t *testing.T) {
	for _, tc := range []struct {
		backend []string
		want    []string
	}{
		{nil, []string{"workers="}},
		{[]string{"-connect", tcpWorkers(t, 2)}, []string{"distributed verification: 2 TCP workers (", "nodes=2]", "wire: routed="}},
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
	if err := fs.Parse([]string{"-connect", tcpWorkers(t, 2)}); err != nil {
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
// conservative rejects of its busted checks. The store crosses the cluster
// boundary — a local re-run of the same sweep is answered from what two
// TCP workers' run wrote, with no miss — but an admission service on a
// cluster, with the same budget and cache directory, must not serve one
// of them as a verdict: every pair of archetypes it answers, it answers as
// the exact search does.
func TestBudgetedSweepStoreIsNotTheServiceStore(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-synthetic", "30", "-seed", "1", "-maxstates", "400", "-cachedir", dir}
	if code, _, stderr := experimentsCmd(append(sweep, "-connect", tcpWorkers(t, 2))...); code != 0 {
		t.Fatalf("sweep: exit %d: %s", code, stderr)
	}
	code, stdout, stderr := experimentsCmd(sweep...)
	if code != 0 {
		t.Fatalf("local re-run: exit %d: %s", code, stderr)
	}
	m := regexp.MustCompile(`admission cache: (\d+) hits / (\d+) lookups`).FindStringSubmatch(stdout)
	if m == nil || m[1] != m[2] || m[1] == "0" {
		t.Fatalf("local re-run of the cluster's sweep: %q, want every lookup a hit\n%s", m, stdout)
	}
	ts := dverify.Loopback(2)
	defer dverify.Close(ts)
	svc := admit.New(admit.Options{Backend: dverify.Runner(ts), MaxStates: 400, CacheDir: dir})
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
