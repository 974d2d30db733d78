// Command verifyslot model-checks whether a set of case-study applications
// can share one TT slot, printing the verdict, search statistics and (for
// violations) the adversarial disturbance schedule.
//
// Usage:
//
//	verifyslot -apps C1,C5,C4,C3 [-lazy] [-workers N]
//	           [-maxstates N] [-connect host:port,host:port]
//	           [-json] [-tracefile out.json]
//
// -json replaces the text report with the per-run trace as JSON (verdict,
// states, rate, per-level frontier table, wire stats) — one parseable
// document instead of grepping rate= out of the stats line. -tracefile
// writes the same trace to a file while keeping the text output, so CI
// can assert on both. Both flags record the run with an internal/obs
// trace; its level spans are the result's level vector (verify.Result.Levels),
// which every engine, local or distributed, fills.
//
// The verdict is computed with the local search -workers asks for (the
// sequential BFS for 1, owner-partitioned parallel lanes otherwise), or
// — with -connect — with the distributed backend of internal/dverify over
// cmd/verifyd daemons, one node per daemon process. The workers exchange
// frontiers over a mesh of direct node↔node links, one barrier per BFS
// level. -maxstates bounds the whole search on any backend: a slot busts,
// or not, at the same level locally and on any number of workers. A worker
// that dies mid-run leaves the cluster and the run restarts on the
// survivors, with the same verdict and counts.
// When a violation is found, verify.Counterexample rebuilds the schedule
// from that run's verdict (its depth and violator) with a local BFS, so the
// schedule ends in a miss of the violator printed, on every backend.
//
// The stats line reports rate=N states/s of the verification proper
// (excluding profiling and counterexample reconstruction), so throughput
// regressions — local or distributed — show up on any run.
//
// The backend flags (-workers, -connect) are
// internal/cli's group; -ta and -server refuse, by name, every flag their
// mode cannot honour (DESIGN.md, "Commands").
package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/cli"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/ta"
	"tightcps/internal/verify"
)

func main() { cli.Main("verifyslot", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("verifyslot", stderr)
	appsFlag := fs.String("apps", "C1,C5,C4,C3", "comma-separated applications")
	useTA := fs.Bool("ta", false, "check the faithful Fig. 5–7 timed-automata network (eager policy, exact, unbudgeted) instead of the packed verifier")
	lazy := fs.Bool("lazy", false, "verify the lazy-preemption policy")
	maxStates := fs.Int("maxstates", 0, "visited-state budget of the search, on a -connect cluster too (0 = 200M)")
	server := fs.String("server", "", "submit to an admission service at this base URL (e.g. http://host:9833) instead of verifying locally")
	serverRetries := fs.Int("server-retries", 0, "retry -server submits refused with 503 (drain, full queue) this many times, honoring Retry-After")
	jsonOut := fs.Bool("json", false, "emit the run report as JSON (the per-run trace: verdict, per-level table, wire stats) instead of text")
	traceFile := fs.String("tracefile", "", "write the per-run JSON trace report to this file")
	backend := cli.BackendFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *useTA {
		if err := cli.Unset(fs, "is incompatible with -ta (the TA network is one local search of the eager policy, exact, unbudgeted and untraced)",
			"connect", "workers", "maxstates", "lazy", "server", "json", "tracefile"); err != nil {
			return err
		}
	}
	if *server != "" {
		if err := cli.Unset(fs, "is incompatible with -server (the admission service runs the search; this process only asks)",
			"connect", "workers", "json", "tracefile"); err != nil {
			return err
		}
	}

	names := strings.Split(*appsFlag, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if *server != "" {
		return runServer(stdout, *server, *serverRetries, names, verify.Spec{MaxStates: *maxStates}, *lazy)
	}

	profs, err := plants.ProfileList(names...)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if *useTA {
		res, ok, err := verify.CheckNetwork(profs, ta.CheckOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "TA network: schedulable=%v states=%d depth=%d (%.2fs)\n",
			ok, res.States, res.Depth, time.Since(t0).Seconds())
		return nil
	}
	cl, err := backend.Open(func(format string, args ...any) {
		fmt.Fprintf(stderr, "verifyslot: "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	if cl.Banner != "" && !*jsonOut {
		fmt.Fprintln(stdout, cl.Banner)
	}
	cfg := cl.Config
	cfg.NondetTies, cfg.MaxStates = true, *maxStates
	if *lazy {
		cfg.Policy = sched.PreemptLazy
	}
	var rtr *obs.Trace
	if *jsonOut || *traceFile != "" {
		rtr = obs.NewTrace("")
		cfg.RunID, cfg.RunTrace = rtr.RunID, rtr
	}
	tv := time.Now()
	res, err := verify.Slot(profs, cfg)
	if err != nil {
		return err
	}
	verifySecs := time.Since(tv).Seconds()
	rate := 0 // of the verification proper, not the schedule rebuilt below
	if verifySecs > 0 {
		rate = int(float64(res.States) / verifySecs)
	}
	if rtr != nil && *traceFile != "" {
		if err := rtr.WriteFile(*traceFile); err != nil {
			return fmt.Errorf("-tracefile: %w", err)
		}
	}
	if *jsonOut {
		// The machine-readable report IS the trace; the text path below
		// (and its counterexample reconstruction) is the human surface.
		b, err := rtr.JSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	var schedule [][]int
	if !res.Schedulable {
		// Local even for a distributed verdict, so it may exceed a
		// single node's budget; the verdict below stands either way.
		if schedule, err = verify.Counterexample(profs, cfg, res); err != nil {
			fmt.Fprintf(stderr, "verifyslot: counterexample reconstruction failed: %v\n", err)
		}
	}
	fmt.Fprintf(stdout, "slot %v: schedulable=%v\n", names, res.Schedulable)
	fmt.Fprintf(stdout, "  states=%d transitions=%d depth=%d rate=%d states/s (%.2fs) [gomaxprocs=%d numcpu=%d %s]\n",
		res.States, res.Transitions, res.Depth, rate, time.Since(t0).Seconds(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cl.Width)
	if res.Wire.RoutedStates > 0 {
		fmt.Fprintf(stdout, "  %s\n", res.Wire.Report())
	}
	if !res.Schedulable {
		fmt.Fprintf(stdout, "  violator: %s\n", names[res.Violator])
		if schedule != nil {
			fmt.Fprintln(stdout, "  adversarial disturbance schedule (sample: applications):")
			for k, apps := range schedule {
				if len(apps) == 0 {
					continue
				}
				var ns []string
				for _, a := range apps {
					ns = append(ns, names[a])
				}
				fmt.Fprintf(stdout, "    %3d: %s\n", k, strings.Join(ns, ", "))
			}
		}
	}
	return nil
}

// runServer is the -server client mode: the admission question goes to a
// running admission service (verifyd -http) — where fleet-wide coalescing
// and the persistent verdict cache live — and the verdict is printed in
// the same shape as a local run so scripts and CI greps work unchanged.
func runServer(stdout io.Writer, base string, retries int, names []string, spec verify.Spec, lazy bool) error {
	if lazy {
		spec.Policy = "lazy"
	}
	client := &admit.Client{BaseURL: base, Retry503: retries}
	resp, err := client.Admit(&admit.AdmitRequest{Apps: names, Config: spec})
	if err != nil {
		return err
	}
	v := resp.Verdict
	fmt.Fprintf(stdout, "slot %v: schedulable=%v\n", names, v.Schedulable)
	served := "verified"
	switch {
	case resp.Warm:
		served = "warm cache hit (admission bit only)"
	case resp.Cached:
		served = "cache hit"
	case resp.Coalesced:
		served = "coalesced onto a concurrent submit"
	}
	fmt.Fprintf(stdout, "  states=%d transitions=%d depth=%d (%s, %.1fms via %s)\n",
		v.States, v.Transitions, v.Depth, served, resp.ElapsedMs, base)
	if !v.Schedulable && v.ViolatorName != "" {
		fmt.Fprintf(stdout, "  violator: %s\n", v.ViolatorName)
	}
	return nil
}
