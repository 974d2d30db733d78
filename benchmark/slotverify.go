package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"tightcps/internal/dverify"
	"tightcps/internal/obs"
	"tightcps/internal/plants"
	"tightcps/internal/sim"
	"tightcps/internal/switching"
	"tightcps/internal/ta"
	"tightcps/internal/verify"
)

// runSlotVerify times verify.Slot on pre-computed profiles: S1 on the
// sequential, in-process-lanes and 2-node-loopback-mesh engines, the
// violating wide fleet W7 and the violating narrow slot V5 on the
// sequential engine, plus the small slot S2 and the symmetric fleet F9.
// Profiling is set-up. The traced run adds the layer probes: a
// benchmark-side BFS through the Expander/StateSet seam, visited-set micro
// rows, allocation and contention deltas, the per-job mesh costs and an
// in-process TCP mesh.
func runSlotVerify(e *env) error {
	cs, err := loadSlotCases(e.smoke)
	if err != nil {
		return err
	}
	cluster := dverify.Loopback(2)
	defer dverify.Close(cluster)
	mesh := dverify.Runner(cluster)

	// timed runs one verification, checks it against its pin outside the
	// timed region and returns its latency in milliseconds.
	timed := func(sp *spanRec, op int, c slotCase, engine string, cfg verify.Config) (ms float64, res verify.Result, root int) {
		layer := "verify.slot"
		if cfg.Distributed != nil {
			layer = "dverify.mesh"
		}
		root = sp.begin("op."+c.name+"/"+engine, -1, op)
		t := time.Now()
		id := sp.begin(layer, root, op)
		res, err := verify.Slot(c.profiles, cfg)
		sp.end(id)
		ms = 1000 * time.Since(t).Seconds()
		sp.end(root)
		e.check(c.name+" "+engine, c.want.check(res, err, engine == "seq"))
		return ms, res, root
	}
	round := func(sp *spanRec, record bool) {
		op := e.newOp()
		add := func(name string, v float64) {
			if record {
				e.rec.add(name, v)
			}
		}
		ms, res, root := timed(sp, op, cs.s1, "seq", cs.s1.config(1))
		if sp != nil {
			e.rec.add("bench.attributed_pct", 100*sp.covered(root)/sp.get(root).dur())
		}
		add("op.s1_seq_ms", ms)
		add("cold_ms", ms)
		add("verify.s1_seq_states_per_s", float64(res.States)/(ms/1000))
		ms, res, _ = timed(sp, op, cs.s1, "par", cs.s1.config(0))
		add("op.s1_par_ms", ms)
		add("verify.s1_par_states_per_s", float64(res.States)/(ms/1000))
		meshCfg := cs.s1.config(1)
		meshCfg.Distributed = mesh
		ms, res, _ = timed(sp, op, cs.s1, "mesh", meshCfg)
		add("op.s1_mesh_ms", ms)
		add("dverify.routed_states", float64(res.Wire.RoutedStates))
		add("dverify.filtered_states", float64(res.Wire.FilteredStates))
		add("dverify.raw_bytes", float64(res.Wire.RawBytes))
		add("dverify.wire_bytes", float64(res.Wire.WireBytes))
		ms, _, _ = timed(sp, op, cs.wide, "seq", cs.wide.config(1))
		add("op.wide_seq_ms", ms)
		ms, _, _ = timed(sp, op, cs.viol, "seq", cs.viol.config(1))
		add("op.violation_seq_ms", ms)
		ms, _, _ = timed(sp, op, cs.small, "seq", cs.small.config(1))
		add("verify.small_verdict_us", 1000*ms)
		ms, _, _ = timed(sp, op, cs.sym, "seq", cs.sym.config(1))
		add("verify.sym_verdict_ms", ms)
	}

	// Set-up ends with the independent oracles, once per run, and one
	// untimed round that warms the standing mesh and the heap.
	e.check("S2 against the internal/ta oracle", taOracle(e, cs.small))
	e.check("S1 co-simulated", cosim(e, cs.s1))
	round(nil, false)
	e.beginWindow()

	if e.traced {
		slotProbes(e, cs, mesh)
	}
	e.rounds(func(sp *spanRec) { round(sp, sp == nil) })
	return nil
}

// taOracle cross-checks a schedulable slot with the generic timed-automata
// checker, which shares no code with the packed verifier.
func taOracle(e *env, c slotCase) error {
	t := time.Now()
	_, schedulable, err := verify.CheckNetwork(c.profiles, ta.CheckOptions{})
	e.rec.add("ta.check_ms", 1000*time.Since(t).Seconds())
	if err != nil {
		return err
	}
	if schedulable != c.want.schedulable {
		return fmt.Errorf("ta says schedulable=%v, pin says %v", schedulable, c.want.schedulable)
	}
	return nil
}

// cosim runs the slot's applications through the plant + arbiter
// co-simulator with every application disturbed at sample 0; a verified
// slot must not miss a deadline.
func cosim(e *env, c slotCase) error {
	var pl []switching.Plant
	var dist []sim.Disturbance
	for i, name := range c.apps {
		a, err := plants.ByName(name)
		if err != nil {
			return err
		}
		pl = append(pl, plants.SwitchingPlant(a))
		dist = append(dist, sim.Disturbance{Sample: 0, App: i})
	}
	t := time.Now()
	runner, err := sim.New(pl, c.profiles, 0)
	if err != nil {
		return err
	}
	res, err := runner.Run(sim.Scenario{Disturbances: dist, Horizon: 120})
	e.rec.add("sim.cosim_ms", 1000*time.Since(t).Seconds())
	if err != nil {
		return err
	}
	if res.Missed {
		return errors.New("co-simulation missed a deadline on a verified slot")
	}
	for _, a := range res.Apps {
		if !a.Met {
			return fmt.Errorf("co-simulation: %s settled in %d samples, over its requirement", a.Name, a.J)
		}
	}
	return nil
}

// slotProbes are the per-layer measurements of the traced run, cheapest
// first: repeat stops repeating once half the window is spent.
func slotProbes(e *env, cs *slotCases, mesh func([]*switching.Profile, verify.Config) (verify.Result, error)) {
	// dverify: per-job fixed cost on the standing mesh, a fresh cluster's
	// first verdict, and the same slot over real sockets.
	meshCfg := cs.small.config(1)
	meshCfg.Distributed = mesh
	e.repeat(5, func() {
		t := time.Now()
		res, err := verify.Slot(cs.small.profiles, meshCfg)
		e.rec.add("dverify.mesh_small_verdict_us", 1e6*time.Since(t).Seconds())
		e.check("S2 mesh", cs.small.want.check(res, err, false))
	})
	e.repeat(3, func() {
		t := time.Now()
		fresh := dverify.Loopback(2)
		cfg := cs.small.config(1)
		cfg.Distributed = dverify.Runner(fresh)
		res, err := verify.Slot(cs.small.profiles, cfg)
		e.rec.add("dverify.cluster_init_ms", 1000*time.Since(t).Seconds())
		e.check("S2 fresh mesh", cs.small.want.check(res, err, false))
		dverify.Close(fresh)
	})
	e.check("TCP mesh", tcpMeshProbe(e, cs.s1))

	// Benchmark-side BFS and set micro rows, narrow then wide.
	e.repeat(3, func() {
		p, err := bfsProbe(cs.s1.profiles, cs.s1.config(1))
		e.check("BFS probe S1", p.check(cs.s1.want, err))
		if err != nil {
			return
		}
		e.rec.add("verify.expand_ns_per_state", p.expandNs/float64(p.expanded))
		e.rec.add("verify.insert_ns_per_succ", p.insertNs/float64(p.transitions))
		e.rec.add("verify.dup_ratio", float64(p.dups)/float64(p.transitions))
		e.rec.add("verify.transitions_per_state", float64(p.transitions)/float64(p.expanded))
		miss, hit, grow, err := setRows(p)
		e.check("set rows S1", err)
		e.rec.add("verify.set_miss_ns", miss)
		e.rec.add("verify.set_hit_ns", hit)
		e.rec.add("verify.set_grow_ns", grow)
	})
	e.repeat(3, func() {
		p, err := bfsProbe(cs.wide.profiles, cs.wide.config(1))
		e.check("BFS probe W7", p.check(cs.wide.want, err))
		if err != nil {
			return
		}
		e.rec.add("verify.wide_expand_ns_per_state", p.expandNs/float64(p.expanded))
		e.rec.add("verify.wide_insert_ns_per_succ", p.insertNs/float64(p.transitions))
		miss, hit, _, err := setRows(p)
		e.check("set rows W7", err)
		e.rec.add("verify.wideset_miss_ns", miss)
		e.rec.add("verify.wideset_hit_ns", hit)
	})

	// Allocation of one sequential verdict, contention of one lanes verdict.
	e.repeat(3, func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := verify.Slot(cs.s1.profiles, cs.s1.config(1))
		runtime.ReadMemStats(&m1)
		e.check("S1 seq (alloc probe)", cs.s1.want.check(res, err, true))
		e.rec.add("verify.s1_allocs_per_op", float64(m1.Mallocs-m0.Mallocs))
		e.rec.add("verify.s1_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc))

		c0 := verify.Contention()
		res, err = verify.Slot(cs.s1.profiles, cs.s1.config(0))
		c1 := verify.Contention()
		e.check("S1 par (contention probe)", cs.s1.want.check(res, err, false))
		e.rec.add("verify.cas_retries", float64(c1.CASRetries-c0.CASRetries))
		e.rec.add("verify.steals", float64(c1.Steals-c0.Steals))
	})

	// obs: the cost of an attached RunTrace on the sequential verdict, and
	// what the trace says about the level structure.
	var with, without []float64
	e.repeat(3, func() {
		t := time.Now()
		res, err := verify.Slot(cs.s1.profiles, cs.s1.config(1))
		without = append(without, time.Since(t).Seconds())
		e.check("S1 seq (untraced half)", cs.s1.want.check(res, err, true))

		cfg := cs.s1.config(1)
		cfg.RunTrace = obs.NewTrace("")
		t = time.Now()
		res, err = verify.Slot(cs.s1.profiles, cfg)
		with = append(with, time.Since(t).Seconds())
		e.check("S1 seq (RunTrace half)", cs.s1.want.check(res, err, true))
		widest := 0
		for _, l := range cfg.RunTrace.Levels {
			widest = max(widest, l.States)
		}
		var lerr error
		if got := cfg.RunTrace.LevelStates(); got != res.States {
			lerr = fmt.Errorf("level spans hold %d states, verdict %d", got, res.States)
		}
		e.check("RunTrace levels partition the visited set", lerr)
		e.rec.add("verify.levels", float64(len(cfg.RunTrace.Levels)))
		e.rec.add("verify.max_level_states", float64(widest))
	})
	e.rec.add("obs.trace_overhead_pct", 100*(median(with)-median(without))/median(without))
}

// tcpMeshProbe verifies the slot on two dverify servers listening on
// loopback sockets in this process.
func tcpMeshProbe(e *env, c slotCase) error {
	var servers []*dverify.Server
	var addrs []string
	served := make(chan error, 2) // one send per server
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s := dverify.NewServer(l, nil)
		servers = append(servers, s)
		addrs = append(addrs, l.Addr().String())
		go func() { served <- s.Serve() }()
	}
	nodes, err := dverify.Dial(addrs, 5*time.Second)
	if err == nil {
		cfg := c.config(1)
		cfg.Distributed = dverify.Runner(nodes)
		e.repeat(3, func() {
			t := time.Now()
			res, verr := verify.Slot(c.profiles, cfg)
			e.rec.add("dverify.tcp2_s1_ms", 1000*time.Since(t).Seconds())
			e.rec.add("dverify.tcp2_wire_bytes", float64(res.Wire.WireBytes))
			e.rec.add("dverify.tcp2_saved_fraction", 1-float64(res.Wire.WireBytes)/float64(max(res.Wire.RawBytes, 1)))
			if cerr := c.want.check(res, verr, false); cerr != nil && err == nil {
				err = cerr
			}
		})
		dverify.Close(nodes)
	}
	for _, s := range servers {
		s.Shutdown()
	}
	for range servers {
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
