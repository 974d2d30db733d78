package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"

	"tightcps/internal/cli"
	"tightcps/internal/dverify"
)

// TestFlagConflicts: every combination the daemon refuses exits 2 with a
// message naming the conflict, before it serves anything.
func TestFlagConflicts(t *testing.T) {
	front := []string{"-listen", "", "-http", "127.0.0.1:0"}
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-listen", "", "-http", ""}, "nothing to serve"},
		{[]string{"-listen", "127.0.0.1:0", "-connect", "127.0.0.1:1"}, "-connect configures the admission plane's backend; it needs -http"},
		{append(front, "-connect", "127.0.0.1:1", "-ft"), "flag provided but not defined: -ft"},
		{append(front, "-ft"+"dir", "d"), "flag provided but not defined: -ft" + "dir"},
		{append(front, "-retries", "3"), "flag provided but not defined: -retries"},
		{append(front, "-breaker", "2"), "flag provided but not defined: -breaker"},
		{append(front, "-nodes", "2"), "flag provided but not defined: -nodes"},
		{append(front, "-workers", "-1"), "-workers must be ≥ 0"},
		{[]string{"-connect" + "-retries", "3"}, "flag provided but not defined: -connect" + "-retries"},
	} {
		var o, e bytes.Buffer
		code := cli.Exit("verifyd", run(tc.args, &o, &e, nil), &e)
		if code != 2 || !strings.Contains(e.String(), tc.want) || o.Len() != 0 {
			t.Errorf("verifyd %q: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, o.String(), e.String(), tc.want)
		}
	}
}

// TestServeThenDrain: a quiet daemon with both planes on ephemeral ports
// and a backend of two TCP workers answers S2 with its exact count over
// HTTP, then drains on the first signal down its channel and returns nil.
func TestServeThenDrain(t *testing.T) {
	var workers []string
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := dverify.NewServer(l, nil)
		go srv.Serve()
		t.Cleanup(srv.Shutdown)
		workers = append(workers, l.Addr().String())
	}
	logR, logW := io.Pipe()
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-connect", strings.Join(workers, ","), "-quiet"}, io.Discard, logW, sigs)
		logW.Close()
	}()
	lines := bufio.NewScanner(logR)
	var addr string
	var seen []string
	for addr == "" && lines.Scan() {
		seen = append(seen, lines.Text())
		if _, rest, ok := strings.Cut(lines.Text(), "admission service on http://"); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	rest := make(chan []string, 1)
	go func() {
		var more []string
		for lines.Scan() {
			more = append(more, lines.Text())
		}
		rest <- more
	}()
	if addr == "" {
		t.Fatalf("no admission address logged (run: %v):\n%s", <-done, strings.Join(seen, "\n"))
	}

	resp, err := http.Post("http://"+addr+"/v1/admit", "application/json", strings.NewReader(`{"apps":["C6","C2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"states":10201`)) {
		t.Errorf("POST /v1/admit S2: %d %s (%v)", resp.StatusCode, body, err)
	}

	sigs <- os.Interrupt
	if err := <-done; err != nil {
		t.Errorf("run after a drain: %v", err)
	}
	log := strings.Join(append(seen, <-rest...), "\n")
	for _, want := range []string{"worker listening on 127.0.0.1:", "(backend: distributed verification: 2 TCP workers (" + strings.Join(workers, ", ") + "))", "drained; bye"} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	if strings.Contains(log, "admit:") {
		t.Errorf("-quiet daemon logged the service's events:\n%s", log)
	}
}
