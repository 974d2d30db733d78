// Command verifyslot model-checks whether a set of case-study applications
// can share one TT slot, printing the verdict, search statistics and (for
// violations) the adversarial disturbance schedule.
//
// Usage:
//
//	verifyslot -apps C1,C5,C4,C3 [-bounded] [-ta] [-lazy] [-workers N]
//	           [-maxstates N] [-nodes K | -connect host:port,host:port]
//	           [-json] [-tracefile out.json]
//	           [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// -json replaces the text report with the per-run trace as JSON (verdict,
// states, rate, per-level frontier table, wire stats) — one parseable
// document instead of grepping rate= out of the stats line. -tracefile
// writes the same trace to a file while keeping the text output, so CI
// can assert on both. Both flags record the run with an internal/obs
// trace; level spans come from whichever driver ran (local or distributed).
//
// The verdict is computed with the local owner-partitioned parallel BFS, or
// — with -nodes or -connect — with the distributed backend of
// internal/dverify: -nodes K runs K in-process loopback workers, -connect
// drives cmd/verifyd daemons over TCP. The workers exchange frontiers over a
// mesh of direct node↔node links with pipelined asynchronous levels. In
// distributed runs -maxstates is a per-node budget, so a cluster of K
// workers admits slots up to K times larger than one node.
// When a violation is found, the verdict, counts and violator printed are
// those of that run; only the counterexample schedule comes from a second,
// local sequential traced run (tracing needs deterministic in-process
// parent pointers), which may end in a miss of a different application
// than the minimum-state violator a parallel or distributed run reports —
// the schedule is then labelled with the application it ends in.
//
// The stats line reports rate=N states/s of the verification proper
// (excluding profiling and counterexample reconstruction), so throughput
// regressions — local or distributed — show up on any run.
//
// -cpuprofile and -memprofile write pprof profiles of the verification —
// the expansion core is the product's hot path, so regressions are
// diagnosed here rather than by instrumenting the library.
//
// -workers N sets the lanes of a local search: 0 (the default) is
// GOMAXPROCS owner-partitioned lanes, 1 the sequential search; counts and
// verdict are the same for every N ≥ 2 (DESIGN.md §1). With -nodes or
// -connect it is ignored: a mesh node is one search goroutine, a
// distributed run's parallelism is its node count, and the stats line
// prints nodes=K in place of workers=N.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/dverify"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/ta"
	"tightcps/internal/verify"
)

// main parses flags and delegates to run so deferred cleanups — profile
// writers, cluster teardown — fire on error exits too (os.Exit skips
// defers, which would truncate a CPU profile exactly when diagnosing a
// failing run).
func main() {
	os.Exit(run())
}

func run() int {
	appsFlag := flag.String("apps", "C1,C5,C4,C3", "comma-separated applications")
	bounded := flag.Bool("bounded", false, "use the bounded-disturbance acceleration")
	useTA := flag.Bool("ta", false, "check the faithful Fig. 5–7 timed-automata network instead of the packed verifier")
	lazy := flag.Bool("lazy", false, "verify the lazy-preemption policy")
	workers := flag.Int("workers", 0, "lanes of a local search (0 = GOMAXPROCS, 1 = sequential; must be ≥ 0); ignored with -nodes/-connect, where a node is one goroutine")
	maxStates := flag.Int("maxstates", 0, "visited-state budget, per node when distributed (0 = 200M)")
	nodes := flag.Int("nodes", 0, "distribute over K in-process loopback workers (0 = local verification)")
	connect := flag.String("connect", "", "distribute over verifyd workers at these comma-separated addresses")
	connectRetries := flag.Int("connect-retries", 1, "startup dial attempts per -connect worker address (1 = no retry; waits 0.5s, doubled per attempt, capped at 10s)")
	ft := flag.Bool("ft", false, "fault-tolerant distributed run: survive worker deaths by shard reassignment and rollback (see -ftdir)")
	ftdir := flag.String("ftdir", "", "checkpoint directory for -ft runs, visible to every worker (empty = recovery restarts the search)")
	server := flag.String("server", "", "submit to an admission service at this base URL (e.g. http://host:9833) instead of verifying locally")
	serverRetries := flag.Int("server-retries", 0, "retry -server submits refused with 503 (drain, full queue) this many times, honoring Retry-After")
	jsonOut := flag.Bool("json", false, "emit the run report as JSON (the per-run trace: verdict, per-level table, wire stats) instead of text")
	traceFile := flag.String("tracefile", "", "write the per-run JSON trace report to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the verification to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the verification to this file")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "verifyslot: -workers must be ≥ 0 (0 = GOMAXPROCS lanes, 1 = sequential), got %d\n", *workers)
		return 2
	}
	if *useTA && (*nodes > 0 || *connect != "" || *maxStates != 0) {
		// The TA network checker is local-only and unbudgeted; ignoring the
		// flags silently would fake a distributed (or bounded) run.
		fmt.Fprintln(os.Stderr, "verifyslot: -ta is incompatible with -nodes/-connect/-maxstates (the TA checker runs locally)")
		return 2
	}
	if (*jsonOut || *traceFile != "") && (*useTA || *server != "") {
		// Traces are recorded by the packed engine's drivers; the TA checker
		// and the remote service don't run them in this process.
		fmt.Fprintln(os.Stderr, "verifyslot: -json/-tracefile report an engine run in this process; incompatible with -ta and -server")
		return 2
	}

	names := strings.Split(*appsFlag, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	if *server != "" {
		if *useTA || *nodes > 0 || *connect != "" || *cpuprofile != "" || *memprofile != "" {
			fmt.Fprintln(os.Stderr, "verifyslot: -server submits remotely; -ta/-nodes/-connect and the profiling flags are local-run flags")
			return 2
		}
		return runServer(*server, *serverRetries, names, verify.Spec{
			Bounded:   *bounded,
			MaxStates: *maxStates,
		}, *lazy)
	}

	profs, err := plants.ProfileList(names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verifyslot: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "verifyslot: -cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "verifyslot: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "verifyslot: -memprofile:", err)
			}
		}()
	}

	t0 := time.Now()
	if *useTA {
		res, ok, err := verify.CheckNetwork(profs, ta.CheckOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("TA network: schedulable=%v states=%d depth=%d (%.2fs)\n",
			ok, res.States, res.Depth, time.Since(t0).Seconds())
		return 0
	}
	cfg := verify.Config{NondetTies: true, Workers: *workers, MaxStates: *maxStates}
	if *bounded {
		cfg.MaxDisturbances = verify.BoundFor(profs)
	}
	if *lazy {
		cfg.Policy = sched.PreemptLazy
	}
	var dialLogf func(format string, args ...any)
	if !*jsonOut {
		dialLogf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "verifyslot: "+format+"\n", args...)
		}
	}
	ts, clusterDesc, err := dverify.ClusterRetry(*nodes, *connect, *connectRetries, dialLogf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifyslot:", err)
		return 2
	}
	if *ft && ts == nil {
		fmt.Fprintln(os.Stderr, "verifyslot: -ft is a distributed-run flag; it needs -nodes or -connect")
		return 2
	}
	if ts != nil {
		defer dverify.Close(ts)
		cfg.Distributed = dverify.Runner(ts)
		cfg.FaultTolerance = *ft
		if *ft {
			cfg.CheckpointDir = *ftdir
		}
		if !*jsonOut {
			fmt.Println(clusterDesc)
		}
	}
	var rtr *obs.Trace
	if *jsonOut || *traceFile != "" {
		rtr = obs.NewTrace("")
		cfg.RunID = rtr.RunID
		cfg.RunTrace = rtr
	}
	tv := time.Now()
	res, err := verify.Slot(profs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	verifySecs := time.Since(tv).Seconds()
	rate := 0 // of the verification proper, not the traced re-run below
	if verifySecs > 0 {
		rate = int(float64(res.States) / verifySecs)
	}
	if rtr != nil && *traceFile != "" {
		if err := rtr.WriteFile(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "verifyslot: -tracefile:", err)
			return 1
		}
	}
	if *jsonOut {
		// The machine-readable report IS the trace; the text path below
		// (and its counterexample reconstruction) is the human surface.
		b, err := rtr.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "verifyslot:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	// scheduleEnds is the application the counterexample schedule ends in a
	// miss of: the sequential traced re-run stops at the first miss it
	// meets, which need not be the minimum-state violator res names.
	scheduleEnds := res.Violator
	if !res.Schedulable {
		// Re-run locally, sequentially, with tracing for the disturbance
		// schedule only. Under a distributed run this may exceed the
		// single-node budget; the verdict above stands either way.
		tcfg := cfg
		tcfg.Trace = true
		tcfg.Distributed = nil
		if traced, err := verify.Slot(profs, tcfg); err != nil {
			fmt.Fprintf(os.Stderr, "verifyslot: counterexample reconstruction failed: %v\n", err)
		} else {
			res.Counterexample, scheduleEnds = traced.Counterexample, traced.Violator
		}
	}
	// What ran the search: the node count of a distributed run (a node is
	// one goroutine, -workers does not reach it), the lanes of a local one.
	width := fmt.Sprintf("nodes=%d", len(ts))
	if ts == nil {
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		width = fmt.Sprintf("workers=%d", effWorkers)
	}
	fmt.Printf("slot %v: schedulable=%v\n", names, res.Schedulable)
	fmt.Printf("  states=%d transitions=%d depth=%d bounded=%v rate=%d states/s (%.2fs) [gomaxprocs=%d numcpu=%d %s]\n",
		res.States, res.Transitions, res.Depth, res.Bounded, rate, time.Since(t0).Seconds(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), width)
	if res.Wire.RawBytes > 0 {
		fmt.Printf("  %s\n", res.Wire.Report())
	}
	if !res.Schedulable {
		fmt.Printf("  violator: %s\n", names[res.Violator])
		if res.Counterexample != nil {
			fmt.Println("  adversarial disturbance schedule (sample: applications):")
			if scheduleEnds != res.Violator {
				fmt.Printf("  (schedule from a sequential traced re-run; ends in a miss of %s)\n", names[scheduleEnds])
			}
			for k, apps := range res.Counterexample {
				if len(apps) == 0 {
					continue
				}
				var ns []string
				for _, a := range apps {
					ns = append(ns, names[a])
				}
				fmt.Printf("    %3d: %s\n", k, strings.Join(ns, ", "))
			}
		}
	}
	return 0
}

// runServer is the -server client mode: the admission question goes to a
// running admission service (verifyd -http) — where fleet-wide coalescing
// and the persistent verdict cache live — and the verdict is printed in
// the same shape as a local run so scripts and CI greps work unchanged.
func runServer(base string, retries int, names []string, spec verify.Spec, lazy bool) int {
	if lazy {
		spec.Policy = "lazy"
	}
	cli := &admit.Client{BaseURL: base, Retry503: retries}
	resp, err := cli.Admit(&admit.AdmitRequest{Apps: names, Config: spec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifyslot:", err)
		return 1
	}
	v := resp.Verdict
	fmt.Printf("slot %v: schedulable=%v\n", names, v.Schedulable)
	served := "verified"
	switch {
	case resp.Warm:
		served = "warm cache hit (admission bit only)"
	case resp.Cached:
		served = "cache hit"
	case resp.Coalesced:
		served = "coalesced onto a concurrent submit"
	}
	fmt.Printf("  states=%d transitions=%d depth=%d bounded=%v (%s, %.1fms via %s)\n",
		v.States, v.Transitions, v.Depth, v.Bounded, served, resp.ElapsedMs, base)
	if !v.Schedulable && v.ViolatorName != "" {
		fmt.Printf("  violator: %s\n", v.ViolatorName)
	}
	return 0
}
