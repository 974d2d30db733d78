package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAll runs every workload twice — untraced for the end-to-end and per-op
// rows, traced for the per-layer rows — each in a fresh process, so peak
// RSS and GC state do not leak from one workload into the next.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, smoke bool) (report, error) {
	rep := report{Host: host(), Seed: seed, Seconds: seconds}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	dir, err := os.MkdirTemp("", "tightcps-benchmark")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", wl.Name, trace))
			args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-o", path}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			// The child's table is reprinted below from its results file.
			runErr := cmd.Run()
			one, err := readReport(path)
			if err != nil {
				if runErr != nil {
					return rep, fmt.Errorf("%s (trace %d): %w", wl.Name, trace, runErr)
				}
				return rep, err
			}
			rep.Runs = append(rep.Runs, one.Runs...)
			for _, rr := range one.Runs {
				printRows(stdout, rr)
			}
		}
	}
	return rep, nil
}

// compareReports prints, for every gated (workload, metric) row the two
// results files share, both medians with their quartiles and the ratio with
// its base, and applies the row's own bound. A row whose spread inside
// either file exceeds the bound is unresolved, not unchanged — unless every
// sample of one file reads better than every sample of the other.
func compareReports(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	if base.Seconds != cur.Seconds {
		return false, fmt.Errorf("run length differs: %gs vs %gs", base.Seconds, cur.Seconds)
	}
	fmt.Fprintf(w, "base %s: gomaxprocs=%d num_cpu=%d %s seed=%d\n", basePath, base.Host.Gomaxprocs, base.Host.NumCPU, base.Host.Go, base.Seed)
	fmt.Fprintf(w, "new  %s: gomaxprocs=%d num_cpu=%d %s seed=%d\n", newPath, cur.Host.Gomaxprocs, cur.Host.NumCPU, cur.Host.Go, cur.Seed)
	fmt.Fprintf(w, "%-12s %-24s %-6s %30s %30s %9s %6s  %s\n", "workload", "metric", "unit", "base median [q1,q3]", "new median [q1,q3]", "new/base", "bound", "verdict")
	untraced := map[string]runReport{}
	for _, c := range cur.Runs {
		if c.Trace == 0 {
			untraced[c.Workload] = c
		}
	}
	for _, b := range base.Runs {
		c, ok := untraced[b.Workload]
		if b.Trace != 0 || !ok {
			continue
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range list {
				br, ok1 := b.Metrics[def.Name]
				cr, ok2 := c.Metrics[def.Name]
				if !ok1 || !ok2 || def.Bound == 0 || br.Value == 0 {
					continue
				}
				verdict := judge(def, br, cr)
				if verdict == "REGRESSED" {
					regressed = true
				}
				fmt.Fprintf(w, "%-12s %-24s %-6s %30s %30s %9.3f %5.0f%%  %s\n", b.Workload, def.Name, def.Unit,
					fmt.Sprintf("%.5g [%.5g,%.5g]", br.Value, br.Q1, br.Q3),
					fmt.Sprintf("%.5g [%.5g,%.5g]", cr.Value, cr.Q1, cr.Q3),
					cr.Value/br.Value, 100*def.Bound, verdict)
			}
		}
		if c.Failed > 0 {
			regressed = true
			fmt.Fprintf(w, "%-12s %d of %d output checks failed in %s\n", c.Workload, c.Failed, c.Attempted, newPath)
		}
	}
	return regressed, nil
}

func judge(def metricDef, base, cur row) string {
	// worse is the share of the base median by which cur is worse.
	worse := cur.Value/base.Value - 1
	allBetter, allWorse := cur.Max < base.Min, cur.Min > base.Max
	if def.Better == "higher" {
		worse = 1 - cur.Value/base.Value
		allBetter, allWorse = cur.Min > base.Max, cur.Max < base.Min
	}
	spread := math.Max((base.Q3-base.Q1)/base.Value, (cur.Q3-cur.Q1)/cur.Value)
	switch {
	case spread > def.Bound && !allBetter && !allWorse:
		return fmt.Sprintf("unresolved (spread %.0f%%)", 100*spread)
	case worse > def.Bound:
		return "REGRESSED"
	case worse < -def.Bound:
		return "improved"
	}
	return "ok"
}
