// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	-table1     Table 1: JT, JE, T*w, Tdw−, Tdw+ for C1..C6
//	-fig2       Fig. 2: motivational response curves
//	-fig3       Fig. 3: settling-time surface, stable vs unstable pair
//	-fig4       Fig. 4: dwell-time tables vs wait time (C1, J* = 0.36 s)
//	-mapping    Sec. 5: slot dimensioning, proposed vs baseline [9]
//	-fig8       Fig. 8: co-simulated responses on slot S1
//	-fig9       Fig. 9: co-simulated responses on slot S2
//	-verifytime Sec. 5: verification-time study (exact states and time)
//	-all        everything above
//
// Beyond the paper's evaluation, -synthetic N dimensions a seeded random
// workload of N applications (see internal/plants.Synthetic): first-fit
// with exact verification under the symmetry quotient, a DP partitioner
// comparison on a tractable sample, and per-run statistics (slots needed,
// states explored, cache traffic). Slots grow past the paper's 6-app scale;
// the packed state is fitted to each candidate's largest r, so one word
// holds a fleet of up to 8 instances at r ≤ 32; a larger candidate is an
// "over the encoding cap" reject.
//
// Scale-out and warm-start knobs:
//
//	-nodes K / -connect a,b   run every slot verification on K loopback
//	                          nodes or cmd/verifyd daemons (internal/cli's
//	                          backend group, with -workers and -ft);
//	                          -maxstates then budgets states per node
//	-cachedir warm            persist the -synthetic admission cache across
//	                          invocations (verifyd -cachedir's layout: one
//	                          subdirectory per config salt, safe across runs)
//	-granularity-sweep l,h,s  re-dimension the -synthetic workload at every
//	                          Tw granularity in [l,h] step s, charting slots
//	                          needed against dwell-table words (replaces the
//	                          single-granularity sweep)
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tightcps/internal/baseline"
	"tightcps/internal/cli"
	"tightcps/internal/lti"
	"tightcps/internal/mapping"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
	"tightcps/internal/textplot"
	"tightcps/internal/verify"
)

func main() { cli.Main("experiments", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("experiments", stderr)
	var (
		table1     = fs.Bool("table1", false, "regenerate Table 1")
		fig2       = fs.Bool("fig2", false, "regenerate Fig. 2")
		fig3       = fs.Bool("fig3", false, "regenerate Fig. 3")
		fig4       = fs.Bool("fig4", false, "regenerate Fig. 4")
		mappingF   = fs.Bool("mapping", false, "regenerate the slot-dimensioning result")
		fig8       = fs.Bool("fig8", false, "regenerate Fig. 8")
		fig9       = fs.Bool("fig9", false, "regenerate Fig. 9")
		verifytime = fs.Bool("verifytime", false, "regenerate the verification-time study")
		jsonOut    = fs.Bool("json", false, "with -verifytime alone: emit per-combo run traces (states, rate, per-level table, wire stats) as JSON instead of the text table")
		all        = fs.Bool("all", false, "run every paper experiment above (excludes -synthetic)")
		synthetic  = fs.Int("synthetic", 0, "dimension a synthetic workload of N applications (0 = off)")
		seed       = fs.Int64("seed", 1, "random seed for -synthetic")
		maxStates  = fs.Int("maxstates", 30_000_000, "per-admission state budget for -synthetic (per node when distributed); busted checks are rejected conservatively")
		cachedir   = fs.String("cachedir", "", "load/save the -synthetic admission cache under this directory (warm starts across runs)")
		granSweep  = fs.String("granularity-sweep", "", "with -synthetic: re-dimension at every Tw granularity lo,hi,step (e.g. 1,8,1)")
	)
	backend := cli.BackendFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	switch {
	case *synthetic < 0:
		return cli.Usagef("-synthetic must be ≥ 0, got %d", *synthetic)
	case *granSweep != "" && *synthetic == 0:
		return cli.Usagef("-granularity-sweep requires -synthetic N")
	case *granSweep != "" && *cachedir != "": // the granularity sweep keeps no persistent cache
		return cli.Usagef("-cachedir applies to the plain -synthetic sweep, not -granularity-sweep")
	}
	if *all {
		*table1, *fig2, *fig3, *fig4, *mappingF, *fig8, *fig9, *verifytime = true, true, true, true, true, true, true, true
	}
	if *jsonOut && (!*verifytime || *table1 || *fig2 || *fig3 || *fig4 || *mappingF || *fig8 || *fig9 || *synthetic > 0) {
		// Only the verification-time study is a run report; mixing JSON into
		// the other experiments' text output would leave neither parseable.
		return cli.Usagef("-json applies to -verifytime alone")
	}
	if !(*table1 || *fig2 || *fig3 || *fig4 || *mappingF || *fig8 || *fig9 || *verifytime || *synthetic > 0) {
		fs.Usage()
		return cli.Usagef("no experiment selected (-table1 … -verifytime, -all or -synthetic N)")
	}
	lo, hi, step, err := parseSweepRange(*granSweep)
	if err != nil {
		return err
	}
	cl, err := backend.Open(func(format string, args ...any) {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	if cl.Banner != "" && !*jsonOut {
		fmt.Fprintln(stdout, cl.Banner)
	}
	x := &experiments{out: stdout, stderr: stderr, cl: cl}
	if *synthetic > 0 {
		// The sweeps admit on the symmetry quotient under the state budget.
		cfg := cl.Config
		cfg.SymmetryReduction, cfg.MaxStates = true, *maxStates
		adm := mapping.NewAdmission(cfg, cl.Nodes)
		if *granSweep != "" {
			err = x.granularitySweep(*synthetic, *seed, adm, lo, hi, step)
		} else {
			err = x.synthetic(*synthetic, *seed, adm, *cachedir)
		}
		if err != nil {
			return err
		}
	}
	for _, e := range []struct {
		on  bool
		run func() error
	}{
		{*fig2, x.fig2}, {*fig3, x.fig3}, {*fig4, x.fig4}, {*table1, x.table1}, {*mappingF, x.mapping},
		{*fig8, x.fig8}, {*fig9, x.fig9},
		{*verifytime, func() error { return x.verifyTime(paperCombos, *jsonOut) }},
	} {
		if !e.on {
			continue
		}
		if err := e.run(); err != nil {
			return err
		}
	}
	return nil
}

// experiments is one invocation: where its report goes, and the backend
// every slot verification runs on (-workers lanes, locally or on every
// node of the -nodes/-connect cluster).
type experiments struct {
	out, stderr io.Writer
	cl          *cli.Cluster
}

// parseSweepRange parses -granularity-sweep's lo,hi,step triple; "" is no
// sweep.
func parseSweepRange(s string) (lo, hi, step int, err error) {
	if s == "" {
		return 0, 0, 0, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, cli.Usagef("-granularity-sweep wants lo,hi,step, got %q", s)
	}
	var v [3]int
	for i, p := range parts {
		if v[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
			return 0, 0, 0, cli.Usagef("-granularity-sweep %q: %v", s, err)
		}
	}
	if v[0] < 1 || v[1] < v[0] || v[2] < 1 {
		return 0, 0, 0, cli.Usagef("-granularity-sweep %q wants 1 ≤ lo ≤ hi and step ≥ 1", s)
	}
	return v[0], v[1], v[2], nil
}

func (x *experiments) fig2() error {
	fmt.Fprintln(x.out, "== Fig. 2: response curves for different control strategies ==")
	ks, ku := motivational(plants.MotivationalKEStable), motivational(plants.MotivationalKEUnstable)
	horizon := 50
	curves := []textplot.Series{
		{Name: "KT", Y: switching.SimulateSequence(ks, waitDwell(0, horizon), horizon)},
		{Name: "KsE", Y: switching.SimulateSequence(ks, nil, horizon)},
		{Name: "KuE", Y: switching.SimulateSequence(ku, nil, horizon)},
		{Name: "4KsE+4KT+nKsE", Y: switching.SimulateSequence(ks, waitDwell(4, 4), horizon)},
		{Name: "4KuE+4KT+nKuE", Y: switching.SimulateSequence(ku, waitDwell(4, 4), horizon)},
	}
	fmt.Fprint(x.out, textplot.Lines(curves, textplot.Options{}))
	for _, c := range curves {
		j, ok := lti.SettlingIndex(c.Y, plants.SettleTol)
		fmt.Fprintf(x.out, "  %-16s settling: %s\n", c.Name, secs(j, ok))
	}
	fmt.Fprintln(x.out)
	return nil
}

// motivational is the Sec. 3.1 DC motor under KT and the ET gain kE.
func motivational(kE lti.Feedback) switching.Plant {
	return switching.Plant{Sys: plants.Motivational(), KT: plants.MotivationalKT, KE: kE,
		X0: plants.MotivationalX0, JStar: 18, R: 25}
}

// waitDwell is w samples of ET control, then d of TT.
func waitDwell(w, d int) []switching.Mode {
	seq := make([]switching.Mode, w+d)
	for i := w; i < w+d; i++ {
		seq[i] = switching.MT
	}
	return seq
}

func secs(j int, ok bool) string {
	if !ok {
		return ">horizon"
	}
	return fmt.Sprintf("%.2f s (%d samples)", float64(j)*plants.H, j)
}

func (x *experiments) fig3() error {
	fmt.Fprintln(x.out, "== Fig. 3: settling time J(Tw, Tdw), stable vs unstable switching ==")
	for _, pr := range []struct {
		name string
		kE   lti.Feedback
	}{{"KT+KsE", plants.MotivationalKEStable}, {"KT+KuE", plants.MotivationalKEUnstable}} {
		pts := switching.Surface(motivational(pr.kE), 10, 8, switching.Config{})
		minJ, maxJ, unsettled := switching.SurfaceStats(pts)
		fmt.Fprintf(x.out, "  %s: J over Tw∈[0,10] × Tdw∈[0,8]: min %.2f s, max %.2f s, unsettled %d\n",
			pr.name, float64(minJ)*plants.H, float64(maxJ)*plants.H, unsettled)
		header := []string{"Tw\\Tdw"}
		for d := 0; d <= 8; d++ {
			header = append(header, fmt.Sprint(d))
		}
		var rows [][]string
		for tw := 0; tw <= 10; tw++ {
			row := []string{fmt.Sprint(tw)}
			for d := 0; d <= 8; d++ {
				pt := pts[tw*9+d]
				if math.IsInf(pt.JSec, 1) {
					row = append(row, "inf")
				} else {
					row = append(row, fmt.Sprintf("%.2f", pt.JSec))
				}
			}
			rows = append(rows, row)
		}
		fmt.Fprint(x.out, textplot.Table(header, rows))
		fmt.Fprintln(x.out)
	}
	return nil
}

func (x *experiments) fig4() error {
	fmt.Fprintln(x.out, "== Fig. 4: minimum/maximum dwell times vs wait time (C1, J*=0.36 s) ==")
	ps, err := plants.ProfileList("C1")
	if err != nil {
		return err
	}
	p := ps[0]
	header := []string{"Tw", "Tdw−", "J@Tdw− (s)", "Tdw+", "J@Tdw+ (s)"}
	var rows [][]string
	for tw := 0; tw <= p.TwStar; tw++ {
		rows = append(rows, []string{
			fmt.Sprint(tw),
			fmt.Sprint(p.TdwMinus[tw]),
			fmt.Sprintf("%.2f", float64(p.JAtMin[tw])*plants.H),
			fmt.Sprint(p.TdwPlus[tw]),
			fmt.Sprintf("%.2f", float64(p.JBest[tw])*plants.H),
		})
	}
	fmt.Fprint(x.out, textplot.Table(header, rows))
	fmt.Fprintf(x.out, "  T*w = %d samples; RLE storage: Tdw− %d runs, Tdw+ %d runs\n\n",
		p.TwStar, switching.EncodeRLE(p.TdwMinus).Words(), switching.EncodeRLE(p.TdwPlus).Words())
	return nil
}

func (x *experiments) table1() error {
	fmt.Fprintln(x.out, "== Table 1: case-study switching profiles (samples, h = 0.02 s) ==")
	ps, err := plants.ProfileList("C1", "C2", "C3", "C4", "C5", "C6")
	if err != nil {
		return err
	}
	header := []string{"App", "r", "J*", "JT", "JE", "T*w", "Tdw−", "Tdw+"}
	var rows [][]string
	for _, p := range ps {
		rows = append(rows, []string{
			p.Name, fmt.Sprint(p.R), fmt.Sprint(p.JStar), fmt.Sprint(p.JT), fmt.Sprint(p.JE),
			fmt.Sprint(p.TwStar), textplot.IntsCSV(p.TdwMinus), textplot.IntsCSV(p.TdwPlus),
		})
	}
	fmt.Fprint(x.out, textplot.Table(header, rows))
	fmt.Fprintln(x.out)
	return nil
}

func (x *experiments) mapping() error {
	fmt.Fprintln(x.out, "== Sec. 5: TT-slot dimensioning, proposed vs baseline [9] ==")
	ps, err := plants.ProfileList("C1", "C2", "C3", "C4", "C5", "C6")
	if err != nil {
		return err
	}
	// The partitioner's subsets include every slot first-fit asked about.
	adm, cache := mapping.NewAdmission(x.cl.Config, x.cl.Nodes), mapping.NewCache()
	t0 := time.Now()
	ff, err := mapping.FirstFitCached(ps, adm.Verify, cache)
	if err != nil {
		return err
	}
	fmt.Fprintf(x.out, "  proposed (first-fit + exact model checking): %d slots %v  [%d checks, %d cached, %.2fs]\n",
		len(ff.Slots), ff.SlotNames(ps), ff.Verifications, ff.CacheHits, time.Since(t0).Seconds())
	t0 = time.Now()
	opt, err := mapping.OptimalCached(ps, adm.Verify, cache)
	if err != nil {
		return err
	}
	fmt.Fprintf(x.out, "  exact DP partitioner (2ⁿ−1 subsets):         %d slots %v  [%d checks, %d served by cache, %.2fs]\n",
		len(opt.Slots), opt.SlotNames(ps), opt.Verifications, opt.CacheHits, time.Since(t0).Seconds())

	rs := map[string]int{}
	var def []baseline.AppTiming
	for _, p := range ps {
		rs[p.Name] = p.R
		def = append(def, baseline.FromProfile(p))
	}
	order := []int{0, 4, 3, 5, 1, 2} // paper order C1,C5,C4,C6,C2,C3 over name-sorted apps
	cal, err := baseline.PaperCalibratedTimings(rs)
	if err != nil {
		return err
	}
	an := baseline.Analysis{Strategy: baseline.NonPreemptiveDM}
	calSlots := an.FirstFitOrdered(cal, order)
	fmt.Fprintf(x.out, "  baseline [9], calibrated reconstruction:     %d slots %v\n",
		len(calSlots), baseline.SlotNames(cal, calSlots))
	defSlots := an.FirstFitOrdered(def, order)
	fmt.Fprintf(x.out, "  baseline [9], default reconstruction:        %d slots %v\n",
		len(defSlots), baseline.SlotNames(def, defSlots))
	saved := 100 * (1 - float64(len(ff.Slots))/float64(len(calSlots)))
	fmt.Fprintf(x.out, "  saving vs calibrated baseline: %.0f%% (paper reports 50%%)\n\n", saved)
	return nil
}

func (x *experiments) coSim(title string, names []string, dists []sim.Disturbance, horizon int) error {
	fmt.Fprintln(x.out, title)
	ps, err := plants.ProfileList(names...)
	if err != nil {
		return err
	}
	var pls []switching.Plant
	for _, n := range names {
		a, err := plants.ByName(n)
		if err != nil {
			return err
		}
		pls = append(pls, plants.SwitchingPlant(a))
	}
	r, err := sim.New(pls, ps, plants.SettleTol)
	if err != nil {
		return err
	}
	res, err := r.Run(sim.Scenario{Disturbances: dists, Horizon: horizon})
	if err != nil {
		return err
	}
	var series []textplot.Series
	for _, a := range res.Apps {
		series = append(series, textplot.Series{Name: a.Name, Y: a.Y[:horizon/2]})
	}
	fmt.Fprint(x.out, textplot.Lines(series, textplot.Options{}))
	fmt.Fprintln(x.out, "  slot occupancy (first 40 samples):")
	fmt.Fprint(x.out, textplot.Occupancy(names, res.Occupancy[:min(40, len(res.Occupancy))]))
	for i, a := range res.Apps {
		fmt.Fprintf(x.out, "  %s: J = %s, J* = %d samples, met = %v, TT samples used = %d\n",
			a.Name, secs(a.J, a.Settled), pls[i].JStar, a.Met, a.TTSamples)
	}
	fmt.Fprintf(x.out, "  deadline missed: %v\n\n", res.Missed)
	return nil
}

func (x *experiments) fig8() error {
	return x.coSim("== Fig. 8: responses of C1, C3, C4, C5 sharing slot S1 (simultaneous disturbances) ==",
		[]string{"C1", "C5", "C4", "C3"},
		[]sim.Disturbance{{Sample: 0, App: 0}, {Sample: 0, App: 1}, {Sample: 0, App: 2}, {Sample: 0, App: 3}},
		120)
}

func (x *experiments) fig9() error {
	return x.coSim("== Fig. 9: responses of C2 and C6 sharing slot S2 (C6 disturbed 10 samples after C2) ==",
		[]string{"C6", "C2"},
		[]sim.Disturbance{{Sample: 0, App: 1}, {Sample: 10, App: 0}},
		120)
}

// archetypeProfiles computes one switching profile per archetype of the
// workload at the given Tw granularity (instances share the design). Nil
// entries mark dropped archetypes.
func (x *experiments) archetypeProfiles(w *plants.SyntheticWorkload, granularity int, verbose bool) []*switching.Profile {
	archProfs := make([]*switching.Profile, len(w.Designs))
	for d := range w.Designs {
		p, err := switching.Compute(plants.SwitchingPlant(w.Apps[slices.Index(w.ArchetypeOf, d)]),
			switching.Config{Horizon: 800, TwGranularity: granularity})
		if err != nil {
			if verbose {
				fmt.Fprintf(x.out, "  archetype %02d dropped: %v\n", d, err)
			}
			continue
		}
		if p.R <= p.TwStar {
			// The plant settles below tolerance during the wait itself, so
			// T*w overtakes r; clamp conservatively to the sporadic model.
			p.ClampTwStar(p.R - 1)
		}
		archProfs[d] = p
		if verbose {
			fmt.Fprintf(x.out, "  archetype %02d: %d instances, JT=%d J*=%d T*w=%d r=%d maxTdw−=%d%s%s\n",
				d, w.Designs[d].Instances, p.JT, p.JStar, p.TwStar, p.R, p.MaxTdwMinus(),
				flagStr(w.Designs[d].Unstable, " [unstable]"), flagStr(w.Designs[d].Slack, " [slack]"))
		}
	}
	return archProfs
}

// instanceProfiles clones the archetype profiles across their fleet
// instances, returning the instance profile list, the archetype index of
// each entry, and the number of instances dropped with their archetype.
func instanceProfiles(w *plants.SyntheticWorkload, archProfs []*switching.Profile) (ps []*switching.Profile, archOfPs []int, dropped int) {
	for i, a := range w.Apps {
		ap := archProfs[w.ArchetypeOf[i]]
		if ap == nil {
			dropped++
			continue
		}
		ps = append(ps, ap.Clone(a.Name))
		archOfPs = append(archOfPs, w.ArchetypeOf[i])
	}
	return ps, archOfPs, dropped
}

// synthetic dimensions a seeded synthetic workload end-to-end: archetype
// profiling (one switching analysis per design, cloned across fleet
// instances), first-fit mapping with exact verification under the symmetry
// quotient, and a DP-partitioner comparison on a tractable sample. The
// admission's rejects — replayed counterexamples, busts of the -maxstates
// budget, sets over the encoding cap — are reported. With -cachedir, admission verdicts
// persist across invocations and the run reports its cache hit rate.
func (x *experiments) synthetic(n int, seed int64, adm *mapping.Admission, cachedir string) error {
	t0 := time.Now()
	w := plants.Synthetic(plants.SyntheticOptions{N: n, Seed: seed})
	fmt.Fprintf(x.out, "== Synthetic dimensioning sweep: %d applications, %d archetypes, seed %d ==\n",
		len(w.Apps), len(w.Designs), seed)

	archProfs := x.archetypeProfiles(w, 1, true)
	ps, archOfPs, dropped := instanceProfiles(w, archProfs)
	fmt.Fprintf(x.out, "  profiled %d applications (%d dropped) in %.1fs\n", len(ps), dropped, time.Since(t0).Seconds())

	cache := mapping.NewCacheFor(adm.Salt())
	if cachedir != "" {
		if _, err := cache.LoadDir(cachedir); err != nil {
			// The healthy shards still load; the bad ones are re-earned.
			fmt.Fprintln(x.stderr, "experiments: skipping unreadable admission cache shards:", err)
		}
		if n := cache.Len(); n > 0 {
			fmt.Fprintf(x.out, "  admission cache: warm start with %d verdicts from %s\n", n, cachedir)
		}
	}

	t1 := time.Now()
	ff, err := mapping.FirstFitCached(ps, adm.Verify, cache)
	if err != nil {
		return err
	}
	maxSlot, deep := 0, 0
	for _, s := range ff.Slots {
		maxSlot = max(maxSlot, len(s))
		if len(s) >= 8 {
			deep++
		}
	}
	fmt.Fprintf(x.out, "  first-fit: %d slots for %d applications (largest slot %d apps, %d slots with ≥8 apps) in %.1fs\n",
		len(ff.Slots), len(ps), maxSlot, deep, time.Since(t1).Seconds())
	st := adm.Stats()
	rate := 0
	if st.SearchTime > 0 {
		rate = int(float64(st.States) / st.SearchTime.Seconds())
	}
	fmt.Fprintf(x.out, "  admission checks %d (%d served by cache), states explored %d, rate=%d states/s [gomaxprocs=%d numcpu=%d %s]\n",
		ff.Verifications, ff.CacheHits, st.States, rate,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), x.cl.Width)
	fmt.Fprintf(x.out, "  rejects: %d by counterexample replay, %d by state budget (conservative), %d over the encoding cap\n",
		st.Refuted, st.BudgetRejects, st.EncodingRejects)
	if st.Wire.RawBytes > 0 {
		fmt.Fprintf(x.out, "  %s\n", st.Wire.Report())
	}
	for si, names := range ff.SlotNames(ps) {
		if len(names) >= 8 {
			fmt.Fprintf(x.out, "    slot S%d (%d apps): %v\n", si+1, len(names), names)
		}
	}

	// DP partitioner comparison on a tractable sample: the instances of the
	// two lowest-T*w archetypes (2^n subset checks stay cheap there, and
	// the shared cache reuses every verdict first-fit already settled).
	sample := dpSample(ps, archOfPs, archProfs)
	if len(sample) >= 4 {
		t2 := time.Now()
		ffS, err1 := mapping.FirstFitCached(sample, adm.Verify, cache)
		dp, err2 := mapping.OptimalCached(sample, adm.Verify, cache)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("DP sample: %w", errors.Join(err1, err2))
		}
		fmt.Fprintf(x.out, "  DP sample (%d apps of the 2 tightest archetypes): first-fit %d slots, optimal %d slots [%d subset checks, %d cached] in %.1fs\n",
			len(sample), len(ffS.Slots), len(dp.Slots), dp.Verifications, dp.CacheHits, time.Since(t2).Seconds())
	}
	hits, misses := cache.Stats()
	if lookups := hits + misses; lookups > 0 {
		fmt.Fprintf(x.out, "  admission cache: %d hits / %d lookups (%.0f%% hit rate)\n",
			hits, lookups, 100*float64(hits)/float64(lookups))
	}
	if cachedir != "" {
		if _, err := cache.SaveDir(cachedir); err != nil {
			return fmt.Errorf("saving admission cache: %w", err)
		}
		fmt.Fprintf(x.out, "  admission cache: %d verdicts saved to %s\n", cache.Len(), cachedir)
	}
	fmt.Fprintf(x.out, "  total sweep time %.1fs\n\n", time.Since(t0).Seconds())
	return nil
}

// granularitySweep re-dimensions the synthetic workload at every Tw
// granularity in [lo, hi] (step apart), charting the paper's Sec. 3
// trade-off at scale: coarser wait-time grids shrink the dwell tables
// (fewer Tw rows to store on the ECU) but make every profile more
// conservative, which costs TT slots.
func (x *experiments) granularitySweep(n int, seed int64, adm *mapping.Admission, lo, hi, step int) error {
	t0 := time.Now()
	w := plants.Synthetic(plants.SyntheticOptions{N: n, Seed: seed})
	fmt.Fprintf(x.out, "== Tw-granularity coarsening sweep: %d applications, seed %d, granularity %d..%d step %d ==\n",
		len(w.Apps), seed, lo, hi, step)

	type point struct {
		g, slots, rawWords, rleWords, checks int
		secs                                 float64
	}
	var pts []point
	for g := lo; g <= hi; g += step {
		t1 := time.Now()
		archProfs := x.archetypeProfiles(w, g, false)
		ps, _, dropped := instanceProfiles(w, archProfs)
		if len(ps) == 0 {
			fmt.Fprintf(x.out, "  granularity %d: every archetype dropped\n", g)
			continue
		}
		// The cache lives for this one first-fit call and is never
		// persisted, so no config salt is needed — each granularity's
		// profiles fingerprint differently anyway.
		ff, err := mapping.FirstFitCached(ps, adm.Verify, mapping.NewCache())
		if err != nil {
			return err
		}
		raw, rle := 0, 0
		for _, p := range ps {
			raw += len(p.TdwMinus) + len(p.TdwPlus)
			rle += switching.EncodeRLE(p.TdwMinus).Words() + switching.EncodeRLE(p.TdwPlus).Words()
		}
		pts = append(pts, point{g, len(ff.Slots), raw, rle, ff.Verifications, time.Since(t1).Seconds()})
		fmt.Fprintf(x.out, "  granularity %d: %d slots, %d table words (%d RLE) for %d apps (%d dropped), %d checks, %.1fs\n",
			g, len(ff.Slots), raw, rle, len(ps), dropped, ff.Verifications, time.Since(t1).Seconds())
	}
	if len(pts) == 0 {
		return nil
	}
	header := []string{"granularity", "slots", "table words", "RLE words", "admission checks", "time (s)"}
	var rows [][]string
	slotsY := make([]float64, len(pts))
	wordsY := make([]float64, len(pts))
	for i, p := range pts {
		rows = append(rows, []string{
			fmt.Sprint(p.g), fmt.Sprint(p.slots), fmt.Sprint(p.rawWords),
			fmt.Sprint(p.rleWords), fmt.Sprint(p.checks), fmt.Sprintf("%.1f", p.secs),
		})
		slotsY[i] = float64(p.slots)
		wordsY[i] = float64(p.rawWords)
	}
	fmt.Fprint(x.out, textplot.Table(header, rows))
	fmt.Fprintln(x.out, "  slots needed vs granularity:")
	fmt.Fprint(x.out, textplot.Lines([]textplot.Series{{Name: "slots", Y: slotsY}}, textplot.Options{Height: 10}))
	fmt.Fprintln(x.out, "  dwell-table words vs granularity:")
	fmt.Fprint(x.out, textplot.Lines([]textplot.Series{{Name: "table words", Y: wordsY}}, textplot.Options{Height: 10}))
	fmt.Fprintf(x.out, "  total sweep time %.1fs\n\n", time.Since(t0).Seconds())
	return nil
}

// dpSample picks up to 5 instances of each of the two archetypes with the
// smallest T*w — a set whose 2^n subset enumeration stays tractable.
// archOfPs maps each profile in ps to its archetype index.
func dpSample(ps []*switching.Profile, archOfPs []int, archProfs []*switching.Profile) []*switching.Profile {
	var live []int
	for d, p := range archProfs {
		if p != nil {
			live = append(live, d)
		}
	}
	sort.Slice(live, func(i, j int) bool { return archProfs[live[i]].TwStar < archProfs[live[j]].TwStar })
	if len(live) > 2 {
		live = live[:2]
	}
	var out []*switching.Profile
	for _, d := range live {
		picked := 0
		for i, inst := range ps {
			if picked < 5 && archOfPs[i] == d {
				out = append(out, inst)
				picked++
			}
		}
	}
	return out
}

func flagStr(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

// paperCombos are the slot sets of the verification-time study: S2, then
// S1 grown one application at a time.
var paperCombos = [][]string{{"C6", "C2"}, {"C1", "C5"}, {"C1", "C5", "C4"}, {"C1", "C5", "C4", "C3"}}

// verifyTime regenerates the verification-time study over combos on the
// backend: exact states, time and verdict per slot set. With jsonRep the
// text table is replaced by a JSON array of per-combo run reports — the
// internal/obs trace of each exact run (backend, states, rate, per-level
// frontier table, wire stats), one parseable document instead of grepping
// the table.
func (x *experiments) verifyTime(combos [][]string, jsonRep bool) error {
	if !jsonRep {
		fmt.Fprintln(x.out, "== Sec. 5: verification-time study ==")
	}
	type comboReport struct {
		Exact *obs.Trace `json:"exact"`
	}
	var reports []comboReport
	header := []string{"slot set", "exact states", "exact time", "verdict"}
	var rows [][]string
	for _, names := range combos {
		ps, err := plants.ProfileList(names...)
		if err != nil {
			return err
		}
		cfg := x.cl.Config
		cfg.NondetTies = true
		var tr *obs.Trace
		if jsonRep {
			tr = obs.NewTrace("")
			cfg.RunID, cfg.RunTrace = tr.RunID, tr
		}
		t0 := time.Now()
		exact, err := verify.Slot(ps, cfg)
		if err != nil {
			return err
		}
		if jsonRep {
			reports = append(reports, comboReport{Exact: tr})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(names),
			fmt.Sprint(exact.States), fmt.Sprintf("%.3fs", time.Since(t0).Seconds()),
			fmt.Sprint(exact.Schedulable),
		})
	}
	if jsonRep {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(x.out, string(b))
		return nil
	}
	fmt.Fprint(x.out, textplot.Table(header, rows))
	fmt.Fprintln(x.out, `  Note: the paper cut UPPAAL's verification from 5 h to 15 min by bounding
  disturbance instances (Sec. 5). This exact encoding has no instance
  counter, so a bound only adds one to every lane: measured before the
  bounded model was removed, S2 took 10,201 states exact and 41,209 bounded,
  S1 1,440,712 exact and 24,459,077 bounded (DESIGN.md §4).`)
	return nil
}
