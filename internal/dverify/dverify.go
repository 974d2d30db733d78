package dverify

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"tightcps/internal/obs"
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
// unanswered Call is the node's death: the Runner hook never calls that
// transport again. A run over the survivors starts clean, because KindInit
// resets every node.
type Transport interface {
	Call(*Request) (*Response, error)
	Close() error
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
// anything else is refused before a worker sees a request.
//
// A worker death — a transport error, no answer within meshDeathTimeout, a
// peer's report that its link to the node failed, a worker-reported error
// in a level round, or a draining worker at Init, whose transport the hook
// closes so the drain can finish — drops the node from the hook's cluster for good, and the run
// restarts on the survivors from the initial state. The verdict and every
// exhaustive count do not depend on the node count, so a recovered run
// answers exactly what a healthy one does, and so does every later run on
// the survivors. With no survivor left a run ends, without I/O, in an
// error naming the lowest dead node and its cause. A worker that refuses
// the job at Init (busy with another coordinator, another protocol) ends
// the run in an error naming it and stays in the cluster. The function serialises
// concurrent calls — the transports carry one protocol session
// at a time.
func Runner(nodes []Transport) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	return runner(nodes, nil)
}

// runner is Runner with a fault-injection plan for tests.
func runner(nodes []Transport, plan *faultPlan) func([]*switching.Profile, verify.Config) (verify.Result, error) {
	c := &cluster{nodes: nodes, dead: make([]error, len(nodes))}
	var mu sync.Mutex
	return func(profiles []*switching.Profile, cfg verify.Config) (verify.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		return c.verify(profiles, cfg, plan)
	}
}

// cluster is what a Runner hook keeps across runs: its transports and, for
// each, why it died (nil while it lives). A dead transport is never called
// again — not even one only wedged, whose Call may still be blocked.
type cluster struct {
	nodes []Transport
	dead  []error
}

// verify runs one distributed verification: attempts on the cluster's live
// nodes until one ends without a death. plan (nil-safe) is the
// deterministic fault-injection harness; its kills fire before the rounds
// of given levels.
func (c *cluster) verify(profiles []*switching.Profile, cfg verify.Config, plan *faultPlan) (verify.Result, error) {
	if len(c.nodes) < 1 || len(c.nodes) > maxNodes {
		return verify.Result{}, fmt.Errorf("dverify: %d nodes (want 1..%d)", len(c.nodes), maxNodes)
	}
	// Validate profiles and config (encoding limits, dwell tables) before
	// shipping the job anywhere.
	cfg.Distributed = nil
	if _, err := verify.New(profiles, cfg); err != nil {
		return verify.Result{}, err
	}
	if _, ok := meshPeers(c.nodes); !ok {
		return verify.Result{}, errors.New("dverify: these transports cannot form a worker mesh (an unwrapped loopback or TCP cluster is required)")
	}

	r := meshRun{
		c:     c,
		trace: cfg.RunTrace,
		plan:  plan,
		job: Job{
			Proto:             protoVersion,
			Profiles:          make([]switching.Profile, len(profiles)),
			Policy:            cfg.Policy,
			NondetTies:        cfg.NondetTies,
			SymmetryReduction: cfg.SymmetryReduction,
			MaxStates:         cfg.MaxStates,
			Workers:           cfg.Workers,
			RunID:             cfg.RunID,
		},
	}
	for i, p := range profiles {
		r.job.Profiles[i] = *p
	}
	if r.job.MaxStates <= 0 {
		r.job.MaxStates = defaultMaxStates
	}
	for {
		live := c.live()
		if len(live) == 0 {
			return verify.Result{Wire: r.aborted}, c.deathOf()
		}
		// The run trace is coordinator-side: attempt folds per-level and
		// per-node spans in; verify.Run finishes it (verdict, wire, slot).
		cfg.RunTrace.SetBackend("mesh", len(live))
		res, died, err := r.attempt(live)
		if !died {
			res.Wire.Add(r.aborted)
			return res, err
		}
	}
}

// live lists the nodes that have not died, in order: an attempt's node i
// is the cluster's live[i].
func (c *cluster) live() []int {
	var live []int
	for i, err := range c.dead {
		if err == nil {
			live = append(live, i)
		}
	}
	return live
}

// deathOf is the error a run ends in when no node is left: it names the
// lowest dead node and its cause.
func (c *cluster) deathOf() error {
	d := slices.IndexFunc(c.dead, func(err error) bool { return err != nil })
	return fmt.Errorf("dverify: node %d: %w", d, c.dead[d])
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

// meshRun is one run's state across its attempts: the job every attempt
// ships (placed per node), the restarts so far and the traffic of the
// aborted attempts, which the result keeps — it crossed the links.
type meshRun struct {
	c        *cluster
	job      Job
	trace    *obs.Trace
	plan     *faultPlan
	restarts int
	rounds   int
	aborted  verify.WireStats
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
