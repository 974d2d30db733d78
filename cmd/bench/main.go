// Command bench regenerates BENCH_verify.json, the repository's performance
// trajectory for the verification hot path. It measures, via
// testing.Benchmark, the workloads the dimensioning engine's capacity is
// quoted in:
//
//   - VerifyS1: the paper's hardest slot (C1+C5+C4+C3, 1.44M states) on the
//     sequential narrow-encoding search — the canonical states/second and
//     allocation number (the same workload as BenchmarkVerifyS1 in
//     bench_test.go);
//   - VerifyS1Workers2: S1 on the in-process parallel search with two
//     owner-partitioned lanes (verify.Config.Workers = 2) — the engine
//     behind the admission service's cold verdicts;
//   - VerifyWideFleet9: a nine-instance fleet under the symmetry quotient.
//     Recorded on the multi-word encoding until the packed state was
//     fitted to the set's largest r; at r = 9 its nine 6-bit lanes and the
//     header are 62 bits, so the row now measures the one-word engine (the
//     name is kept for the trajectory);
//   - VerifyS1Loopback2 / VerifyS1Loopback4: S1 distributed over two and
//     four in-process loopback workers (direct worker↔worker exchange,
//     pipelined levels, one search goroutine per node).
//
// The distributed_scaling section records states/second per node count and
// the speedup against the single-node search. Loopback links pass decoded
// states and ship no encoded bytes, so no row here measures the frontier
// codec's wire volume — benchmark/'s dverify.tcp2_* rows do, over TCP. The
// pre-PR-4 VerifyS1 baseline stays for the allocation trajectory (≥ 5×
// fewer B/op and allocs/op).
//
// Usage:
//
//	bench [-o BENCH_verify.json]
//	bench -trace run.json        # summarize a -tracefile run report
//
// -trace consumes a per-run JSON trace written by verifyslot -tracefile
// (internal/obs), printing its throughput, level and wire numbers in the
// same shape as the benchmark rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// benchResult is one workload's measurement. Gomaxprocs/NumCPU pin the
// builder's core budget next to every number, so 1-CPU CI figures are
// never mistaken for multi-core results. They are omitempty because the
// recorded baselines predate the pinning — a literal 0 there would read
// as a (meaningless) measurement, not as "unknown".
type benchResult struct {
	Name         string  `json:"name"`
	States       int     `json:"states"`
	NsPerOp      int64   `json:"ns_per_op"`
	StatesPerSec float64 `json:"states_per_sec"`
	BPerOp       int64   `json:"b_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	Gomaxprocs   int     `json:"gomaxprocs,omitempty"`
	NumCPU       int     `json:"num_cpu,omitempty"`
}

// scalingEntry is one shape of the distributed_scaling study: S1
// throughput on CoresTotal search goroutines — the lanes of a local row,
// the nodes of a mesh row — with the speedup against the sequential search.
type scalingEntry struct {
	Nodes           int     `json:"nodes"`
	Topology        string  `json:"topology"` // "local" or "mesh"
	CoresTotal      int     `json:"cores_total"`
	StatesPerSec    float64 `json:"states_per_sec"`
	SpeedupVsSingle float64 `json:"speedup_vs_single_node"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
}

// report is the BENCH_verify.json schema.
type report struct {
	Generated string `json:"generated"`
	// Baseline is the pre-PR-4 measurement of VerifyS1 (the allocating
	// expansion core), recorded once so later runs always compare against
	// the same anchor.
	Baseline benchResult   `json:"baseline_verify_s1_pr3"`
	Current  []benchResult `json:"current"`
	// Scaling is the distributed throughput study: states/second per node
	// count.
	Scaling   []scalingEntry `json:"distributed_scaling"`
	BRatio    float64        `json:"b_per_op_improvement"`
	AllocsRat float64        `json:"allocs_per_op_improvement"`
}

// baselineS1 is the pre-PR-4 VerifyS1 measurement (PR-3 tree, same host
// class as CI: go test -bench VerifyFullWorkers1 -benchmem).
var baselineS1 = benchResult{
	Name:         "VerifyS1",
	States:       1440712,
	NsPerOp:      390238054,
	StatesPerSec: 1440712 / 0.390238054,
	BPerOp:       202052528,
	AllocsPerOp:  4888249,
}

// fleetProfiles builds n identical synthetic profiles (distinct names) with
// constant dwell windows — the fleet workload past the paper's scale,
// mirroring bench_test.go.
func fleetProfiles(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		k := twStar + 1
		minT, plusT := make([]int, k), make([]int, k)
		for j := range minT {
			minT[j], plusT[j] = dm, dp
		}
		out[i] = &switching.Profile{
			Name: fmt.Sprintf("F%d", i), TwStar: twStar, TdwMinus: minT, TdwPlus: plusT,
			R: r, Granularity: 1, JStar: twStar + dp,
			JAtMin: make([]int, k), JBest: make([]int, k),
		}
	}
	return out
}

// summarizeTrace prints the bench-relevant numbers of one -tracefile run
// report (states, rate, level count, wire volume) in the same shape as a
// benchmark row, so a distributed run captured in production slots into
// the trajectory next to the loopback measurements.
func summarizeTrace(path string) {
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	backend := tr.Backend
	if backend == "" {
		backend = "local"
	}
	fmt.Printf("trace %s (run %s): slot %v %s", path, tr.RunID, tr.Slot, backend)
	if tr.Nodes > 0 {
		fmt.Printf(" nodes=%d", tr.Nodes)
	}
	fmt.Printf("\n  %-22s %8.0f states/s  states=%d depth=%d levels=%d (sum %d)\n",
		"Trace"+backend, tr.StatesPerSec, tr.States, tr.Depth, len(tr.Levels), tr.LevelStates())
	if tr.Wire != nil && tr.Wire.RawBytes > 0 {
		fmt.Printf("  wire: routed=%d filtered=%d raw=%dB shipped=%dB (%.0f%% saved)\n",
			tr.Wire.RoutedStates, tr.Wire.FilteredStates, tr.Wire.RawBytes, tr.Wire.WireBytes,
			100*(1-float64(tr.Wire.WireBytes)/float64(tr.Wire.RawBytes)))
	}
}

// measure runs one verification workload under testing.Benchmark and
// packages the result.
func measure(name string, states *int, run func() (verify.Result, error)) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Schedulable {
				b.Fatalf("%s: workload must verify", name)
			}
			*states = res.States
		}
	})
	ns := r.NsPerOp()
	return benchResult{
		Name:         name,
		States:       *states,
		NsPerOp:      ns,
		StatesPerSec: float64(*states) / (float64(ns) / 1e9),
		BPerOp:       r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
	}
}

func main() {
	out := flag.String("o", "BENCH_verify.json", "path to write the benchmark report to")
	traceIn := flag.String("trace", "", "summarize a verifyslot/verifyd -tracefile run report at this path and exit (no benchmarks)")
	flag.Parse()

	if *traceIn != "" {
		summarizeTrace(*traceIn)
		return
	}

	s1, err := plants.ProfileList("C1", "C5", "C4", "C3")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fleet9 := fleetProfiles(9, 8, 1, 2, 9)

	var rep report
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	rep.Baseline = baselineS1

	var states int
	fmt.Fprintln(os.Stderr, "bench: VerifyS1 (narrow, sequential)...")
	rep.Current = append(rep.Current, measure("VerifyS1", &states, func() (verify.Result, error) {
		return verify.Slot(s1, verify.Config{NondetTies: true, Workers: 1})
	}))
	fmt.Fprintln(os.Stderr, "bench: VerifyS1Workers2 (narrow, two owner-partitioned lanes)...")
	lanes2 := measure("VerifyS1Workers2", &states, func() (verify.Result, error) {
		return verify.Slot(s1, verify.Config{NondetTies: true, Workers: 2})
	})
	rep.Current = append(rep.Current, lanes2)
	fmt.Fprintln(os.Stderr, "bench: VerifyWideFleet9 (nine apps on one word, symmetry quotient)...")
	rep.Current = append(rep.Current, measure("VerifyWideFleet9", &states, func() (verify.Result, error) {
		return verify.Slot(fleet9, verify.Config{NondetTies: true, SymmetryReduction: true, Workers: 1})
	}))

	single := rep.Current[0].StatesPerSec
	scaling := func(nodes int, topology string, cores int, r benchResult) {
		rep.Scaling = append(rep.Scaling, scalingEntry{
			Nodes: nodes, Topology: topology, CoresTotal: cores,
			StatesPerSec: r.StatesPerSec, SpeedupVsSingle: r.StatesPerSec / single,
			Gomaxprocs: r.Gomaxprocs, NumCPU: r.NumCPU,
		})
	}
	scaling(1, "local", 1, rep.Current[0])
	scaling(1, "local", 2, lanes2)
	// Local-lanes gate: where two lanes have two cores to run on, the
	// parallel search must not lose to the sequential one (the shared-set
	// driver it replaced ran at 0.5×).
	if runtime.GOMAXPROCS(0) >= 2 && lanes2.StatesPerSec < single {
		fmt.Fprintf(os.Stderr, "bench: FAIL: on a %d-proc host the 2-lane local search (%.0f states/s) is slower than the sequential one (%.0f states/s)\n",
			runtime.GOMAXPROCS(0), lanes2.StatesPerSec, single)
		os.Exit(1)
	}

	// Distributed S1: two and four loopback workers.
	meshRun := func(name string, n int) benchResult {
		fmt.Fprintf(os.Stderr, "bench: %s (%d-node mesh)...\n", name, n)
		ts := dverify.Loopback(n)
		defer dverify.Close(ts)
		runner := dverify.Runner(ts)
		run := func() (verify.Result, error) {
			return verify.Slot(s1, verify.Config{NondetTies: true, Distributed: runner})
		}
		// One untimed run first: the standing cluster reuses its workers
		// across Inits, so the quoted numbers (and the alloc-trend gate) are
		// the steady state of a warm fleet, not first-run construction.
		if _, err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r := measure(name, &states, run)
		rep.Current = append(rep.Current, r)
		scaling(n, "mesh", n, r)
		return r
	}
	mesh2 := meshRun("VerifyS1Loopback2", 2)
	mesh4 := meshRun("VerifyS1Loopback4", 4)

	// Alloc-trend gate: per-op allocations of the loopback mesh must stay
	// roughly flat in the node count (each node recycles its inbox batches
	// and frontier buckets; only per-link structures scale). Before the
	// recycling fix the 4-node run allocated ~2× the 2-node run per op.
	if ratio := float64(mesh4.AllocsPerOp) / float64(mesh2.AllocsPerOp); ratio > 1.5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: 4-node mesh allocs/op is %.2f× the 2-node run (%d vs %d), want ≤ 1.5× — per-node allocation is growing with cluster size\n",
			ratio, mesh4.AllocsPerOp, mesh2.AllocsPerOp)
		os.Exit(1)
	}
	cur := rep.Current[0]
	rep.BRatio = float64(rep.Baseline.BPerOp) / float64(cur.BPerOp)
	rep.AllocsRat = float64(rep.Baseline.AllocsPerOp) / float64(cur.AllocsPerOp)

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, c := range rep.Current {
		fmt.Printf("  %-22s %8.0f states/s  %12d B/op  %9d allocs/op\n",
			c.Name, c.StatesPerSec, c.BPerOp, c.AllocsPerOp)
	}
	fmt.Printf("  vs baseline: B/op ×%.1f, allocs/op ×%.0f\n", rep.BRatio, rep.AllocsRat)
	for _, s := range rep.Scaling {
		fmt.Printf("  scaling: %d-node %-5s (%d search goroutines) %8.0f states/s  ×%.2f vs single\n",
			s.Nodes, s.Topology, s.CoresTotal, s.StatesPerSec, s.SpeedupVsSingle)
	}
}
