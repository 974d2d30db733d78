package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tightcps/internal/cli"
)

// dimension runs the command in process and returns its exit code and both
// streams.
func dimension(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("dimension", run(args, &o, &e), &e)
	return code, o.String(), e.String()
}

// TestFlagConflicts: every combination the command refuses exits 2 with a
// message naming the conflict, before any profile is computed.
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"-workers -1", "-workers must be ≥ 0"},
		{"-server http://127.0.0.1:1 -cachedir d", "-cachedir is incompatible with -server"},
		{"-nodes 2", "flag provided but not defined: -nodes"},
	} {
		code, stdout, stderr := dimension(strings.Fields(tc.args)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("dimension %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestCacheDirWarmStart: the case study dimensions onto the paper's two
// slots, and a second run over the same -cachedir answers all six
// admission checks from the saved verdicts.
func TestCacheDirWarmStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	for run, want := range []string{
		"(6 verifications, 0 cache hits)",
		"(6 verifications, 6 cache hits)",
	} {
		code, stdout, stderr := dimension("-cachedir", dir)
		if code != 0 {
			t.Fatalf("run %d: exit %d: %s", run+1, code, stderr)
		}
		for _, w := range []string{"onto 2 TT slot(s)", want, "slot S1: C1, C5, C4, C3\n", "slot S2: C6, C2\n", "admission cache: 6 verdicts saved to " + dir} {
			if !strings.Contains(stdout, w) {
				t.Errorf("run %d: output lacks %q:\n%s", run+1, w, stdout)
			}
		}
	}
}
