package ta

import (
	"errors"
	"strings"
)

// Property is a state predicate checked for reachability.
type Property func(s *State) bool

// CheckResult reports a reachability analysis outcome.
type CheckResult struct {
	Reachable bool
	States    int
	Depth     int
	Witness   []TraceEntry // path to the first satisfying state (if tracing)
}

// TraceEntry is one step of a witness trace.
type TraceEntry struct {
	Step  Step
	State *State
}

// CheckOptions tunes Reachable.
type CheckOptions struct {
	MaxStates int  // abort limit (default 50 million)
	Trace     bool // record a witness path
}

// ErrStateLimit is returned when exploration exceeds MaxStates.
var ErrStateLimit = errors.New("ta: state limit exceeded")

// parentInfo records how a state was first reached (for witness traces).
type parentInfo struct {
	key  string
	step Step
}

// encode flattens a state into a string key for the visited set.
func encode(s *State) string {
	var b strings.Builder
	b.Grow(2 * (len(s.Locs) + len(s.Vars) + len(s.Clocks)))
	for _, v := range s.Locs {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
	}
	for _, v := range s.Vars {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
	}
	for _, v := range s.Clocks {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
	}
	return b.String()
}

// Reachable performs breadth-first reachability analysis for the property.
func (n *Network) Reachable(p Property, opt CheckOptions) (CheckResult, error) {
	if err := n.Validate(); err != nil {
		return CheckResult{}, err
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 50_000_000
	}
	init := n.Initial()
	if !n.invariantsHold(init) {
		return CheckResult{}, errors.New("ta: initial state violates invariants")
	}
	res := CheckResult{States: 1}
	if p(init) {
		res.Reachable = true
		return res, nil
	}
	visited := map[string]bool{encode(init): true}
	var parents map[string]parentInfo
	var byKey map[string]*State
	if opt.Trace {
		parents = map[string]parentInfo{}
		byKey = map[string]*State{encode(init): init}
	}
	frontier := []*State{init}
	var succ []*State
	var steps []Step
	for depth := 0; len(frontier) > 0; depth++ {
		res.Depth = depth
		var next []*State
		for _, s := range frontier {
			sk := ""
			if opt.Trace {
				sk = encode(s)
			}
			succ = succ[:0]
			steps = steps[:0]
			succ, steps = n.Successors(s, succ, steps)
			for i, ns := range succ {
				k := encode(ns)
				if visited[k] {
					continue
				}
				visited[k] = true
				res.States++
				if res.States > opt.MaxStates {
					return res, ErrStateLimit
				}
				if opt.Trace {
					parents[k] = parentInfo{key: sk, step: steps[i]}
					byKey[k] = ns
				}
				if p(ns) {
					res.Reachable = true
					if opt.Trace {
						res.Witness = rebuild(parents, byKey, k)
					}
					return res, nil
				}
				next = append(next, ns)
			}
		}
		frontier = next
	}
	return res, nil
}

func rebuild(parents map[string]parentInfo, byKey map[string]*State, last string) []TraceEntry {
	var rev []TraceEntry
	for k := last; ; {
		pi, ok := parents[k]
		if !ok {
			break
		}
		rev = append(rev, TraceEntry{Step: pi.step, State: byKey[k]})
		k = pi.key
	}
	out := make([]TraceEntry, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// AnyLocation returns a property that holds when any automaton whose name
// has the given prefix occupies the named location (e.g. any application in
// its Error state).
func (n *Network) AnyLocation(prefix, locName string) Property {
	type pair struct{ ai, li int }
	var ps []pair
	for ai, a := range n.Automata {
		if !strings.HasPrefix(a.Name, prefix) {
			continue
		}
		for li, l := range a.Locations {
			if l.Name == locName {
				ps = append(ps, pair{ai, li})
			}
		}
	}
	return func(s *State) bool {
		for _, p := range ps {
			if s.Locs[p.ai] == p.li {
				return true
			}
		}
		return false
	}
}
