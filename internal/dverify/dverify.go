package dverify

import (
	"errors"
	"fmt"
	"sync"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// defaultMaxStates mirrors the local verifier's per-run state cap; in the
// distributed search it applies per node.
const defaultMaxStates = 200_000_000

// maxNodes is the cluster-size cap: nodes own contiguous ranges of the 64
// hash shards, so more nodes than shards cannot all receive work.
const maxNodes = 64

// Transport is one coordinator↔worker link carrying the request/response
// protocol of proto.go. Calls are strictly sequential per transport (the
// coordinator never has two outstanding requests to one node). A failed or
// unanswered Call ends that node's part in the run — the run recovers under
// fault tolerance and otherwise fails naming the node — but a new run
// over the same transports starts clean, because KindInit resets every
// node.
type Transport interface {
	Call(*Request) (*Response, error)
	Close() error
}

// verifyWithFaults runs the distributed reachability analysis for the
// profiles over the given worker nodes, with or without fault tolerance
// (without it a death ends the run) and with a deterministic
// fault-injection plan (nil for production runs) attached: the plan's
// kills fire before the rounds of given levels. The fault-matrix tests drive every recovery path through
// this entry.
func verifyWithFaults(profiles []*switching.Profile, cfg verify.Config, nodes []Transport, ft bool, plan *faultPlan) (verify.Result, error) {
	if len(nodes) < 1 || len(nodes) > maxNodes {
		return verify.Result{}, fmt.Errorf("dverify: %d nodes (want 1..%d)", len(nodes), maxNodes)
	}
	// Validate profiles and config (encoding limits, dwell tables) before
	// shipping the job anywhere.
	cfg.Distributed = nil
	if _, err := verify.New(profiles, cfg); err != nil {
		return verify.Result{}, err
	}
	peers, ok := meshPeers(nodes)
	if !ok {
		return verify.Result{}, errors.New("dverify: these transports cannot form a worker mesh (an unwrapped loopback or TCP cluster is required)")
	}

	job := Job{
		Proto:             protoVersion,
		Profiles:          make([]switching.Profile, len(profiles)),
		NumNodes:          len(nodes),
		Owners:            defaultOwners(len(nodes)),
		Policy:            cfg.Policy,
		NondetTies:        cfg.NondetTies,
		SymmetryReduction: cfg.SymmetryReduction,
		MaxStates:         cfg.MaxStates,
		Workers:           cfg.Workers,
		RunID:             cfg.RunID,
	}
	for i, p := range profiles {
		job.Profiles[i] = *p
	}
	if job.MaxStates <= 0 {
		job.MaxStates = defaultMaxStates
	}

	// The run trace is coordinator-side: verifyMesh folds per-level and
	// per-node spans in; verify.Run finishes it (verdict, wire, slot).
	cfg.RunTrace.SetBackend("mesh", len(nodes))
	return verifyMesh(job, ft, nodes, peers, cfg.RunTrace, plan)
}

// meshPeers reports whether the cluster's transports can carry direct
// worker↔worker links, returning the peer address table for TCP clusters
// (nil for loopback, whose links are in-process channels). A mesh needs
// every transport to be an unwrapped loopback worker of one group, or an
// unwrapped TCP connection whose dialed address peers can also reach.
func meshPeers(nodes []Transport) (peers []string, ok bool) {
	var g *loopGroup
	var addrs []string
	for _, t := range nodes {
		switch tt := t.(type) {
		case *loopTransport:
			if addrs != nil {
				return nil, false
			}
			if g == nil {
				g = tt.group
			} else if g != tt.group {
				return nil, false
			}
		case *tcpTransport:
			if g != nil {
				return nil, false
			}
			addrs = append(addrs, tt.addr)
		default:
			return nil, false
		}
	}
	return addrs, true
}

// Runner adapts a worker set to the verify.Config.Distributed hook: the
// returned function runs the distributed reachability analysis over the
// nodes. The configuration is interpreted exactly like verify.Slot's,
// except that Workers is the lane count of every node (0: the GOMAXPROCS
// of the node's process; 1: one lane) and
// MaxStates is a per-node budget; verify.Counterexample rebuilds the
// schedule of a violation locally. The nodes exchange frontiers over
// direct worker↔worker links, so the transports must be what Loopback or
// Dial returned — one loopback group or one TCP cluster, unwrapped;
// anything else is refused before a worker sees a request. A worker death
// ends the run in an error naming the node and the cause;
// FaultTolerantRunner's runs survive it. The function serialises
// concurrent calls — the transports carry one protocol session at a time.
func Runner(nodes []Transport) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	return runner(nodes, false, nil)
}

// FaultTolerantRunner is Runner for runs that survive worker deaths. The
// coordinator detects a dead worker by transport failure, poll timeout or
// a peer's dead-link report, reassigns its hash shards to the survivors
// and restarts the search on them from the initial state; nothing is
// written to disk. The verdict and every exhaustive count are unchanged by
// recovery, so cached verdicts stay valid. Fault tolerance belongs to the
// cluster: every run through the hook has it, whatever Config its caller
// built.
func FaultTolerantRunner(nodes []Transport) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	return runner(nodes, true, nil)
}

// runner is the hook of Runner and FaultTolerantRunner, with a
// fault-injection plan for tests.
func runner(nodes []Transport, ft bool, plan *faultPlan) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	var mu sync.Mutex
	return func(profiles []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		return verifyWithFaults(profiles, cfg, nodes, ft, plan)
	}
}

// Close closes every transport, returning the first error.
func Close(nodes []Transport) error {
	var first error
	for _, t := range nodes {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
