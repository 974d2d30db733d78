// Command verifyd is the verification daemon, serving either or both of
// two planes:
//
// Worker plane (-listen, the default): one worker node of the distributed
// verification backend (internal/dverify). A coordinator — cmd/verifyslot
// or cmd/experiments with -connect, or a front-door verifyd with -connect
// — dials a set of worker verifyds, ships each a shard range of the
// packed state space, and drives the search over them. The daemons also
// dial each other at job setup (one data link per ordered node pair), so
// frontier batches flow worker↔worker and never transit the coordinator.
//
// Admission plane (-http): the HTTP/JSON admission service front door
// (internal/admit). POST /v1/admit submits a profile set + slot config
// and returns the verdict with its search statistics; GET /v1/jobs/{id}
// polls an async submit; /healthz and /statsz expose liveness and
// counters. The front door verifies on the local engine, or over a worker
// fleet (-connect, one node per worker daemon), with service-level
// coalescing of identical submits, a bounded request queue, and an
// optional persistent verdict cache (-cachedir) checkpointed
// incrementally by fingerprint-prefix shard.
//
// Usage:
//
//	verifyd -listen 127.0.0.1:9471 [-quiet]                 # worker only
//	verifyd -http 127.0.0.1:9833 -listen ""                 # front door only
//	verifyd -http :9833 -connect host1:9471,host2:9471      # front door over a fleet
//
// The backend flags (internal/cli: -workers, -connect)
// configure the admission plane and need -http; a worker inherits
// its search from the coordinator's job. The service runs at least two
// local lanes, so that every backend reports the same minimum-state
// violator.
//
// Resilience: -connect dials each worker up to 5 times, waiting 0.5, 1, 2
// and 4 s between attempts, so the fleet may boot in any order. A worker
// that dies leaves the fleet for good: the run it dies in restarts on the
// survivors, with the verdict and all exhaustive counts unchanged, and
// every later run uses the survivors alone. Once the last worker is dead,
// -localfallback serves verdicts from the in-process engine instead of
// answering 502 (off by default).
//
// Both planes drain on SIGINT/SIGTERM: new sessions and new submits are
// refused (HTTP submits get 503 + Retry-After) while in-flight searches
// and verdicts run to completion and the verdict cache checkpoints; a
// second signal forces an immediate exit.
//
// Telemetry: the admission plane serves Prometheus text exposition at
// GET /metricsz (engine counters, per-link wire bytes, queue depth,
// per-config admission latency histograms). A worker-only daemon's plane
// is raw TCP, so -metrics starts a separate HTTP admin listener serving
// the same /metricsz. -pprof mounts net/http/pprof (and /debug/vars via
// expvar) on whichever HTTP surfaces are up.
package main

import (
	"cmp"
	"errors"
	"expvar"
	"io"
	"log"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/cli"
	"tightcps/internal/dverify"
	"tightcps/internal/obs"
)

// mountDebug adds the pprof handlers and the expvar bridge to an admin mux.
func mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
	obs.Default.PublishExpvar("tightcps")
	mux.Handle("GET /debug/vars", expvar.Handler())
}

func main() {
	cli.Main("verifyd", func(args []string, stdout, stderr io.Writer) error {
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		return run(args, stdout, stderr, sigs)
	})
}

// run serves until every plane it started has drained: the first value on
// sigs drains both planes, the second forces run to return. A plane that
// fails ends the run with its error.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) error {
	fs := cli.NewFlagSet("verifyd", stderr)
	listen := fs.String("listen", "127.0.0.1:9471", "worker-plane address (empty disables the worker plane)")
	httpAddr := fs.String("http", "", "admission-plane HTTP address (empty disables the admission plane)")
	cachedir := fs.String("cachedir", "", "persist admission verdicts under this directory (sharded, incremental)")
	checkpoint := fs.Duration("checkpoint", 30*time.Second, "verdict-cache checkpoint interval")
	queue := fs.Int("queue", 64, "admission request queue depth")
	maxstates := fs.Int("maxstates", 0, "clamp per-request state budgets (0 = engine default)")
	timeout := fs.Duration("timeout", 0, "default per-request budget when the submit sets none (0 = none)")
	localFallback := fs.Bool("localfallback", false, "serve verdicts from the in-process engine when the backend fails (every worker dead) instead of returning 502")
	metricsAddr := fs.String("metrics", "", "HTTP admin address serving /metricsz (for worker-only daemons; the admission plane serves /metricsz itself)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof and /debug/vars on the HTTP surfaces")
	quiet := fs.Bool("quiet", false, "suppress per-session and per-request logging")
	backend := cli.BackendFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *listen == "" && *httpAddr == "" {
		return cli.Usagef("nothing to serve (both -listen and -http empty)")
	}
	if *httpAddr == "" { // a worker inherits its search from the coordinator's job
		if err := cli.Unset(fs, "configures the admission plane's backend; it needs -http",
			"workers", "connect"); err != nil {
			return err
		}
	}

	// logf carries the daemon's own lifecycle (listening, draining); chatf
	// the per-session and per-request lines -quiet silences.
	logf := log.New(stderr, "verifyd: ", log.LstdFlags).Printf
	chatf := logf
	if *quiet {
		chatf = nil
	}

	errc := make(chan error, 2) // one per plane
	planes := 0

	// Worker plane.
	var workerSrv *dverify.Server
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer l.Close() // for the error returns below; Shutdown closes it on a drain
		workerSrv = dverify.NewServer(l, chatf)
		planes++
		go func() { errc <- workerSrv.Serve() }()
		logf("worker listening on %s", l.Addr())
	}

	// Admin plane: a plain HTTP listener for /metricsz (and pprof) — the
	// worker plane is raw TCP, so a worker-only daemon has no other HTTP
	// surface to scrape. It serves no state worth draining.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metricsz", obs.Default.Handler())
		if *pprofOn {
			mountDebug(mux)
		}
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer l.Close()
		go func() {
			if err := http.Serve(l, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				logf("admin listener: %v", err)
			}
		}()
		logf("metrics on http://%s/metricsz", l.Addr())
	}

	// Admission plane.
	var svc *admit.Service
	var httpSrv *http.Server
	if *httpAddr != "" {
		cl, err := backend.Open(chatf)
		if err != nil {
			return err
		}
		defer cl.Close()
		opts := admit.Options{
			Workers:        cl.Config.Workers,
			QueueDepth:     *queue,
			MaxStates:      *maxstates,
			DefaultTimeout: *timeout,
			CacheDir:       *cachedir,
			Checkpoint:     *checkpoint,
			LocalFallback:  *localFallback,
			Logf:           chatf,
		}
		if cl.Config.Distributed != nil {
			opts.Backend, opts.BackendDesc = cl.Config.Distributed, cl.Banner
		}
		l, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		svc = admit.New(opts)
		handler := svc.Handler()
		if *pprofOn {
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mountDebug(mux)
			handler = mux
		}
		httpSrv = &http.Server{Handler: handler}
		planes++
		go func() {
			if err := httpSrv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
				return
			}
			errc <- nil
		}()
		logf("admission service on http://%s (backend: %s)", l.Addr(), cmp.Or(opts.BackendDesc, "local engine"))
	}

	// Combined drain: the first signal drains both planes — the admission
	// service finishes in-flight verdicts and checkpoints while the
	// worker server finishes active sessions — the second forces exit.
	draining := false
	for planes > 0 {
		select {
		case err := <-errc:
			if err != nil {
				return err
			}
			planes--
		case <-sigs:
			if draining {
				return errors.New("forced exit")
			}
			draining = true
			logf("draining: refusing new work, finishing in-flight (signal again to force exit)")
			if svc != nil {
				go func() {
					svc.Drain()
					// The HTTP listener stays up through the drain so
					// in-flight responses and 503s flow; close it once the
					// last verdict is out.
					httpSrv.Close()
				}()
			}
			if workerSrv != nil {
				workerSrv.Shutdown()
			}
		}
	}
	logf("drained; bye")
	return nil
}
