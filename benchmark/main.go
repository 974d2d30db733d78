// Command benchmark is the repository's pipeline benchmark: apps in, slots
// out, timed end to end and per layer. One process runs one workload:
//
//	go run -C benchmark . -workload casestudy -seed 1 -seconds 18 -trace 0
//
// and prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics (the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1). -workload all re-executes
// the binary once per workload and trace mode and prints every metric;
// -compare a.json b.json applies each metric's own bound to two such
// reports. See README.md for the workloads and the layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is the state of one workload run.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	start    time.Time
	rec      *recorder
	spans    *spanRec // nil unless traced
	log      io.Writer

	attempted, failed int
	ops               int
	window            time.Time
	tracedRounds      []float64
}

// check counts one output check; a non-nil err is a failed operation.
func (e *env) check(what string, err error) {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.log, "benchmark: %s: FAILED %s: %v\n", e.workload, what, err)
	}
}

// newOp numbers the next benchmark operation (the span group id).
func (e *env) newOp() int {
	e.ops++
	return e.ops
}

// beginWindow ends set-up: everything before it is setup_s, everything
// after it is measured for -seconds.
func (e *env) beginWindow() {
	e.rec.add("setup_s", time.Since(e.start).Seconds())
	e.window = time.Now()
}

func (e *env) timeLeft() bool { return time.Since(e.window).Seconds() < e.seconds }

// repeat runs probe until it has n samples or the window's first half is
// spent, always at least once — per-layer probes share the traced run's
// window with its rounds.
func (e *env) repeat(n int, probe func()) {
	for i := 0; i < n; i++ {
		if i > 0 && (e.smoke || time.Since(e.window).Seconds() > e.seconds/2) {
			return
		}
		probe()
	}
}

// rounds runs the workload's closed loop until the window closes. An
// untraced run times every round into round_s; a traced run alternates an
// untraced and a traced round, so trace overhead is the difference of two
// medians taken under the same conditions.
func (e *env) rounds(round func(sp *spanRec)) {
	minRounds := 2
	if e.smoke {
		minRounds = 1
	}
	if e.traced {
		minRounds *= 2
	}
	for i := 0; i < minRounds || e.timeLeft(); i++ {
		traced := e.traced && i%2 == 1
		var sp *spanRec
		if traced {
			sp = e.spans
		}
		t := time.Now()
		round(sp)
		d := time.Since(t).Seconds()
		if traced {
			e.tracedRounds = append(e.tracedRounds, d)
		} else {
			e.rec.add("round_s", d)
		}
	}
	if e.traced {
		base := e.rec.median("round_s")
		e.rec.add("bench.trace_overhead_pct", 100*(median(e.tracedRounds)-base)/base)
	}
	e.rec.add("peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hostFacts are recorded beside every run.
type hostFacts struct {
	Gomaxprocs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostFacts {
	return hostFacts{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// runReport is one workload run in a results file.
type runReport struct {
	Workload  string         `json:"workload"`
	Trace     int            `json:"trace"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]row `json:"metrics"`
}

// report is the results-file schema (-o, -compare, baseline.json).
type report struct {
	// Claim is always null: the benchmark's own change claims no gain.
	Claim   *string     `json:"claim"`
	Host    hostFacts   `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runReport `json:"runs"`
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, seconds float64, traced, smoke bool, log io.Writer, start time.Time) (runReport, *spanRec, error) {
	var wl *workloadInfo
	for i := range workloads {
		if workloads[i].Name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return runReport{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{workload: name, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		start: start, rec: newRecorder(), log: log}
	if traced {
		e.spans = newSpanRec()
	}
	if err := wl.run(e); err != nil {
		return runReport{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	rows, err := e.rec.rows(name, traced)
	if err != nil {
		return runReport{}, nil, err
	}
	rr := runReport{Workload: name, Attempted: e.attempted, Failed: e.failed, Metrics: rows}
	if traced {
		rr.Trace = 1
	}
	return rr, e.spans, nil
}

// resultLine is the last line of standard output of one workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineOf selects the metrics the contract asks for: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one. A per-layer
// metric of a layer the workload bypasses reads 0.
func lineOf(rr runReport) resultLine {
	list := endToEnd
	if rr.Trace == 1 {
		list = perLayer
	}
	out := resultLine{Correct: rr.Failed == 0, Attempted: rr.Attempted, Failed: rr.Failed,
		Metrics: map[string]resultValue{}}
	for _, def := range list {
		out.Metrics[def.Name] = resultValue{rr.Metrics[def.Name].Value, def.Unit}
	}
	return out
}

func printRows(w io.Writer, rr runReport) {
	fmt.Fprintf(w, "== %s (trace %d): %d checks, %d failed ==\n", rr.Workload, rr.Trace, rr.Attempted, rr.Failed)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range list {
			r, ok := rr.Metrics[def.Name]
			if !ok {
				continue
			}
			bound := "-"
			if r.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-6s %-6s n=%-6d bound=%-4s # %s\n", def.Name, r.Value, r.Unit, r.Better, r.N, bound, def.What)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
}

func run(args []string, stdout, stderr io.Writer, start time.Time) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "casestudy, slot-verify, fleet-sweep, admit-serve or all")
		seed     = fs.Int64("seed", 1, "drives the generated fleet of fleet-sweep's invariant sweep and admit-serve's coalescing permutations")
		seconds  = fs.Float64("seconds", runSeconds, "measured duration of one workload run")
		trace    = fs.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
		out      = fs.String("o", "", "write the full results (every metric with n, quartiles, bound) to this file")
		spansOut = fs.String("spans", "", "with -trace 1: write the recorded spans to this file")
		smoke    = fs.Bool("smoke", false, "smoke scale: small slots, 32-app fleet, one round (what bench_test.go runs)")
		compare  = fs.Bool("compare", false, "compare two results files: -compare base.json new.json")
		manif    = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *manif:
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		regressed, err := compareReports(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *workload == "":
		fs.Usage()
		return 2
	case *trace != 0 && *trace != 1:
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	case *workload == "all":
		rep, err := runAll(stdout, stderr, *seed, *seconds, *smoke)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeReport(*out, rep); err != nil {
				return fail(err)
			}
		}
		for _, rr := range rep.Runs {
			if rr.Failed > 0 {
				return 1
			}
		}
		return 0
	}

	rr, spans, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *smoke, stderr, start)
	if err != nil {
		return fail(err)
	}
	if *spansOut != "" && spans != nil {
		if err := spans.writeFile(*spansOut); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		rep := report{Host: host(), Seed: *seed, Seconds: *seconds, Runs: []runReport{rr}}
		if err := writeReport(*out, rep); err != nil {
			return fail(err)
		}
	}
	printRows(stdout, rr)
	line, err := json.Marshal(lineOf(rr))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if rr.Failed > 0 {
		return 1
	}
	return 0
}
