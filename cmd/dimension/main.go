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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/core"
	"tightcps/internal/mapping"
	"tightcps/internal/plants"
	"tightcps/internal/sched"
	"tightcps/internal/verify"
)

func main() {
	appsFlag := flag.String("apps", "C1,C2,C3,C4,C5,C6", "comma-separated case-study applications")
	stability := flag.Bool("stability", false, "certify switching stability (CQLF) for every pair")
	lazy := flag.Bool("lazy", false, "verify under the lazy-preemption policy (paper future work)")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS, 1 = serial; must be ≥ 0)")
	cachedir := flag.String("cachedir", "", "load/save the admission cache under this directory (warm starts across runs)")
	server := flag.String("server", "", "route admission questions to the admission service at this base URL")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "dimension: -workers must be ≥ 0 (0 = GOMAXPROCS, 1 = serial), got %d\n", *workers)
		os.Exit(2)
	}

	var apps []core.App
	for _, name := range strings.Split(*appsFlag, ",") {
		a, err := plants.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		apps = append(apps, core.FromPlants(a))
	}
	opts := core.Options{CheckSwitchingStability: *stability, Workers: *workers}
	if *lazy {
		opts.Policy = sched.PreemptLazy
	}
	if *server != "" {
		if *cachedir != "" {
			fmt.Fprintln(os.Stderr, "dimension: -server and -cachedir are exclusive (the service owns verdict persistence)")
			os.Exit(2)
		}
		// The service decides ties/policy semantics from the spec; mirror
		// what the in-process engine would verify under.
		spec := verify.SpecOf(verify.Config{NondetTies: true, Policy: opts.Policy})
		cli := &admit.Client{BaseURL: *server}
		opts.AdmitFunc = cli.VerifyFunc(spec)
		fmt.Printf("admission via %s\n", *server)
	}
	if *cachedir != "" {
		// Mirror the engine's admission config (core.Dimensioner.verifyFunc)
		// so the cache salt matches what the verdicts were computed under.
		vcfg := opts.Verify
		vcfg.NondetTies = true
		vcfg.Policy = opts.Policy
		cache := mapping.NewCacheFor(mapping.VerifyConfigKey(vcfg))
		if _, err := cache.LoadDir(*cachedir); err != nil {
			// The healthy shards still load; the bad ones are re-earned.
			fmt.Fprintln(os.Stderr, "dimension: skipping unreadable admission cache shards:", err)
		}
		if n := cache.Len(); n > 0 {
			fmt.Printf("admission cache: warm start with %d verdicts from %s\n", n, *cachedir)
		}
		opts.Cache = cache
		defer func() {
			if _, err := cache.SaveDir(*cachedir); err != nil {
				fmt.Fprintln(os.Stderr, "dimension: saving admission cache:", err)
				return
			}
			fmt.Printf("admission cache: %d verdicts saved to %s\n", cache.Len(), *cachedir)
		}()
	}
	d := &core.Dimensioner{Apps: apps, Opts: opts}
	t0 := time.Now()
	alloc, err := d.Dimension()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dimensioning failed:", err)
		os.Exit(1)
	}
	fmt.Printf("dimensioned %d applications onto %d TT slot(s) in %.2fs (%d verifications, %d cache hits)\n",
		len(apps), len(alloc.Slots), time.Since(t0).Seconds(), alloc.Verifications, alloc.CacheHits)
	for si, names := range alloc.SlotNames() {
		fmt.Printf("  slot S%d: %s\n", si+1, strings.Join(names, ", "))
	}
	for i, p := range alloc.Profiles {
		fmt.Printf("  %s: JT=%d JE=%d T*w=%d maxTdw−=%d maxTdw+=%d\n",
			apps[i].Name, p.JT, p.JE, p.TwStar, p.MaxTdwMinus(), p.MaxTdwPlus())
	}
}
