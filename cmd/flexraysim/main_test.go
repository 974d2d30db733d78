package main

import (
	"bytes"
	"strings"
	"testing"

	"tightcps/internal/cli"
)

// flexraysim runs the command in process and returns its exit code and
// both streams.
func flexraysim(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = cli.Exit("flexraysim", run(args, &o, &e), &e)
	return code, o.String(), e.String()
}

// TestWCRT: the three frames' dynamic-segment response-time bounds, and
// frame 1's trip through the static slot in cycles 2 and 3.
func TestWCRT(t *testing.T) {
	code, stdout, stderr := flexraysim()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"frame 1 (steer): dynamic-segment WCRT = 1 cycle(s)\n",
		"frame 2 (brake): dynamic-segment WCRT = 1 cycle(s)\n",
		"frame 3 (cruise): dynamic-segment WCRT = 1 cycle(s)\n",
		"[middleware] frame 1 → static slot",
		"cycle 2: frame 1 [TT ]",
		"[middleware] frame 1 → dynamic segment",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	if code, _, stderr := flexraysim("-cycles", "x"); code != 2 || !strings.Contains(stderr, "invalid value \"x\" for flag -cycles") {
		t.Errorf("-cycles x: exit %d, stderr %q; want exit 2", code, stderr)
	}
}
