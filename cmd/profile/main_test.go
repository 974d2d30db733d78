package main

import (
	"bytes"
	"strings"
	"testing"

	"tightcps/internal/cli"
)

// profile runs the command in process and returns its exit code and both
// streams.
func profile(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("profile", run(args, &o, &e), &e)
	return code, o.String(), e.String()
}

// TestTable1Row: C1's profile is the paper's Table 1 row.
func TestTable1Row(t *testing.T) {
	code, stdout, stderr := profile("-app", "C1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"JT  = 9 samples", "JE  = 35 samples", "T*w = 11 samples",
		"Tdw− = [3 4 3 3 3 3 3 3 3 4 4 5]", "Tdw+ = [6 6 5 5 5 6 5 5 4 4 5 5]",
		"paper: JT=9 JE=35 T*w=11",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestRefusals: a flag the command does not define exits 2, an unknown
// application 1, each reported once.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-apps", "C1"}, 2, "flag provided but not defined: -apps"},
		{[]string{"-app", "C9"}, 1, "profile: "},
	} {
		code, stdout, stderr := profile(tc.args...)
		if code != tc.code || strings.Count(stderr, tc.want) != 1 || stdout != "" {
			t.Errorf("profile %v: exit %d, stdout %q, stderr %q; want exit %d naming %q once", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}
