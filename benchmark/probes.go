package main

import (
	"fmt"
	"time"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// probe is the outcome of one benchmark-side BFS.
type probe struct {
	exp         *verify.Expander
	visited     []verify.HashedState // every visited state, in discovery order
	expanded    int                  // states whose successors were generated
	transitions int                  // successors generated
	dups        int                  // successors that were already visited
	depth       int
	violator    int     // -1 when no expansion violated a deadline
	expandNs    float64 // time inside SuccessorsHashedInto
	insertNs    float64 // time inside StateSet.AddHashed
}

// probeChunk is how many frontier states are expanded, then inserted,
// between two clock reads: large enough that the clock is noise, small
// enough that the successor batch stays in cache like the engine's own.
const probeChunk = 4096

// bfsProbe is the sequential search of internal/verify rebuilt on its
// public expansion seam (NewExpander / SuccessorsHashedInto /
// StateSet.AddHashed), so expansion and visited-set insertion can be timed
// apart from outside the package. It expands frontier states in insertion
// order and stops at the first violation, so it must visit exactly the
// states the sequential engine visits.
func bfsProbe(profiles []*switching.Profile, cfg verify.Config) (*probe, error) {
	exp, err := verify.NewExpander(profiles, cfg)
	if err != nil {
		return &probe{}, err
	}
	p := &probe{exp: exp, violator: -1}
	set := exp.NewSet(1 << 16)
	scr := exp.NewScratch()
	init := exp.Initial()
	first := verify.HashedState{S: init, H: exp.Hash(init)}
	set.AddHashed(first.S, first.H)
	p.visited = append(p.visited, first)

	frontier := []verify.HashedState{first}
	var next, succ []verify.HashedState
	prev := 1
	for ; len(frontier) > 0 && p.violator < 0; p.depth++ {
		set.Reserve(levelReserve(len(frontier), prev))
		next = next[:0]
		for lo := 0; lo < len(frontier) && p.violator < 0; lo += probeChunk {
			chunk := frontier[lo:min(lo+probeChunk, len(frontier))]
			succ = succ[:0]
			t0 := time.Now()
			for _, s := range chunk {
				succ, p.violator = exp.SuccessorsHashedInto(s.S, scr, succ)
				if p.violator >= 0 {
					break
				}
				p.expanded++
			}
			t1 := time.Now()
			for _, s := range succ {
				if set.AddHashed(s.S, s.H) {
					next = append(next, s)
				}
			}
			t2 := time.Now()
			p.expandNs += float64(t1.Sub(t0).Nanoseconds())
			p.insertNs += float64(t2.Sub(t1).Nanoseconds())
			p.transitions += len(succ)
		}
		p.visited = append(p.visited, next...)
		prev = len(frontier)
		frontier, next = next, frontier
	}
	p.depth--
	p.dups = p.transitions - (len(p.visited) - 1)
	return p, nil
}

// levelReserve is the engine's estimate of the coming level's fresh states
// from the previous level's fanout.
func levelReserve(frontier, prevFrontier int) int {
	return min(frontier*frontier/prevFrontier, 8*frontier)
}

// check holds the probe to the sequential engine's pinned answer.
func (p *probe) check(want pin, err error) error {
	if err != nil {
		return err
	}
	res := verify.Result{Schedulable: p.violator < 0, States: len(p.visited), Depth: p.depth, Violator: p.violator}
	return want.check(res, nil, true)
}

// setRows times the visited set alone on the probe's state list: inserting
// every state into a set reserved for them (all misses), inserting them
// again (all hits), and inserting them into an unreserved set that has to
// grow on the way. Nanoseconds per insert.
func setRows(p *probe) (miss, hit, grow float64, err error) {
	n := float64(len(p.visited))
	pass := func(set *verify.StateSet) float64 {
		t := time.Now()
		for _, s := range p.visited {
			set.AddHashed(s.S, s.H)
		}
		return float64(time.Since(t).Nanoseconds()) / n
	}
	reserved := p.exp.NewSet(16)
	reserved.Reserve(len(p.visited))
	miss = pass(reserved)
	hit = pass(reserved)
	if got := reserved.Len(); got != len(p.visited) {
		err = fmt.Errorf("probe visited %d distinct states, set holds %d", len(p.visited), got)
	}
	grow = pass(p.exp.NewSet(16))
	return miss, hit, grow, err
}
