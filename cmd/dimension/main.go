// Command dimension runs the end-to-end TT-slot dimensioning flow on the
// paper's six-application case study (or a subset): switching-profile
// computation, exact slot-sharing verification, and first-fit mapping.
//
// Usage:
//
//	dimension [-apps C1,C2,...] [-stability] [-lazy] [-workers N] [-cachedir warm]
//	          [-server http://host:9833]
//
// -cachedir persists the admission cache across invocations: verdicts are
// loaded before the run (a missing directory is a cold start) and the
// shards they changed are saved back after, so repeated dimensioning — CI
// sweeps in particular — skips every slot-sharing verification it has
// already settled. The layout is verifyd -cachedir's, one subdirectory per
// verification config, so a cache produced under a different policy never
// answers for this run.
//
// -server routes every slot-sharing admission question to a running
// admission service (verifyd -http) instead of verifying in-process: the
// first-fit search still runs here, but verdicts come from the service's
// fleet-wide coalescing and persistent cache. -cachedir is redundant
// there (the service owns persistence) and refused.
package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/cli"
	"tightcps/internal/core"
	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/verify"
)

func main() { cli.Main("dimension", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("dimension", stderr)
	appsFlag := fs.String("apps", "C1,C2,C3,C4,C5,C6", "comma-separated case-study applications")
	stability := fs.Bool("stability", false, "certify switching stability (CQLF) for every pair")
	lazy := fs.Bool("lazy", false, "verify under the lazy-preemption policy (paper future work)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS, 1 = serial; must be ≥ 0)")
	cachedir := fs.String("cachedir", "", "load/save the admission cache under this directory (warm starts across runs)")
	server := fs.String("server", "", "route admission questions to the admission service at this base URL")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *workers < 0 {
		return cli.Usagef("-workers must be ≥ 0 (0 = GOMAXPROCS, 1 = serial), got %d", *workers)
	}
	if *server != "" && *cachedir != "" {
		return cli.Usagef("-cachedir is incompatible with -server (the service owns verdict persistence)")
	}

	var apps []core.App
	for _, name := range strings.Split(*appsFlag, ",") {
		a, err := plants.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		apps = append(apps, a)
	}
	opts := core.Options{CheckSwitchingStability: *stability, Workers: *workers}
	if *lazy {
		opts.Policy = sched.PreemptLazy
	}
	if *server != "" {
		// The service verifies under the in-process admission's spec.
		client := &admit.Client{BaseURL: *server}
		opts.AdmitFunc = client.VerifyFunc(verify.SpecOf(opts.Admission().Config()))
		fmt.Fprintf(stdout, "admission via %s\n", *server)
	}
	if *cachedir != "" {
		cache := mapping.NewCacheFor(opts.Admission().Salt())
		if _, err := cache.LoadDir(*cachedir); err != nil {
			// The healthy shards still load; the bad ones are re-earned.
			fmt.Fprintln(stderr, "dimension: skipping unreadable admission cache shards:", err)
		}
		if n := cache.Len(); n > 0 {
			fmt.Fprintf(stdout, "admission cache: warm start with %d verdicts from %s\n", n, *cachedir)
		}
		opts.Cache = cache
	}
	d := &core.Dimensioner{Apps: apps, Opts: opts}
	t0 := time.Now()
	alloc, err := d.Dimension()
	if err != nil {
		return fmt.Errorf("dimensioning failed: %w", err)
	}
	fmt.Fprintf(stdout, "dimensioned %d applications onto %d TT slot(s) in %.2fs (%d verifications, %d cache hits)\n",
		len(apps), len(alloc.Slots), time.Since(t0).Seconds(), alloc.Verifications, alloc.CacheHits)
	for si, names := range alloc.SlotNames() {
		fmt.Fprintf(stdout, "  slot S%d: %s\n", si+1, strings.Join(names, ", "))
	}
	for i, p := range alloc.Profiles {
		fmt.Fprintf(stdout, "  %s: JT=%d JE=%d T*w=%d maxTdw−=%d maxTdw+=%d\n",
			apps[i].Name, p.JT, p.JE, p.TwStar, p.MaxTdwMinus(), p.MaxTdwPlus())
	}
	if opts.Cache != nil {
		if _, err := opts.Cache.SaveDir(*cachedir); err != nil {
			return fmt.Errorf("saving admission cache: %w", err)
		}
		fmt.Fprintf(stdout, "admission cache: %d verdicts saved to %s\n", opts.Cache.Len(), *cachedir)
	}
	return nil
}
