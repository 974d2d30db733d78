package verify

// The reference expansion: the decoded-state core the engine ran on until
// the packed word became its working form (kernel.go). It is kept here,
// verbatim, as the oracle — pack/unpack pin the bit layout the kernel works
// on, and expand/expandGrouped/schedule/canon define, state by state, the
// successor list, its order and the violator the kernel must reproduce
// (TestKernelMatchesReference, FuzzKernelVsReference).

import (
	"tightcps/internal/sched"
)

// cstate is the decoded composed state.
type cstate struct {
	phase [maxApps]uint8
	val   [maxApps]uint8 // Waiting: wt; Cooldown: clock; Granted: tw at grant
	occ   int8           // occupant index, −1 idle
	cT    uint8          // occupant dwell
}

func (v *Verifier) pack(c *cstate) uint64 {
	var s uint64
	for i := 0; i < v.n; i++ {
		f := uint64(c.phase[i]) | uint64(c.val[i])<<phaseBits
		s |= f << (uint(i) * v.appBits)
	}
	occ := uint64(0xF)
	if c.occ >= 0 {
		occ = uint64(c.occ)
	}
	s |= occ << v.occShift
	s |= uint64(c.cT) << v.ctShift
	return s
}

func (v *Verifier) unpack(s uint64, c *cstate) {
	for i := 0; i < v.n; i++ {
		f := s >> (uint(i) * v.appBits)
		c.phase[i] = uint8(f & (1<<phaseBits - 1))
		c.val[i] = uint8(f >> phaseBits & (1<<v.valBits - 1))
	}
	occ := s >> v.occShift & 0xF
	if occ == 0xF {
		c.occ = -1
	} else {
		c.occ = int8(occ)
	}
	c.cT = uint8(s >> v.ctShift & 0xF)
}

// refScratch owns every buffer the expansion core writes through: the
// decoded base state, the successor arena (states plus the disturbance
// bitmask that produced each) and the fixed-size index buffers of the
// scheduling helpers. Each search goroutine owns exactly one scratch —
// the sequential driver keeps one on the stack, every lane of the parallel
// driver and every distributed node embeds its own — so the hot path
// performs no allocation once the arena has grown to the verifier's maximum
// fanout (TestExpansionCoreAllocFree gates this).
type refScratch struct {
	base   cstate
	states []cstate // successor arena, reset by expand
	masks  []uint32 // disturbance bitmask per successor, parallel to states

	elig [maxApps]int8 // eligible-disturbance buffer (expand)
	wait [maxApps]int8 // waiter buffer (schedule)
	cand [maxApps]int8 // grant-candidate buffer (schedule)
}

// laneKey totally orders one application's lane content — by (val, phase),
// a byte each — for the symmetry canonicalisation. It orders decoded lanes
// and is independent of the packed layout.
func laneKey(c *cstate, i int) int {
	return int(c.val[i])<<8 | int(c.phase[i])
}

// canon rewrites c into the canonical representative of its symmetry orbit:
// within every group of identical-profile applications, lanes are sorted by
// content, and the occupant index follows its lane. A no-op when no
// symmetry groups exist.
func (v *Verifier) canon(c *cstate) {
	for _, g := range v.symGroups {
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && laneKey(c, g[j]) < laneKey(c, g[j-1]); j-- {
				a, b := g[j], g[j-1]
				c.phase[a], c.phase[b] = c.phase[b], c.phase[a]
				c.val[a], c.val[b] = c.val[b], c.val[a]
				if int(c.occ) == a {
					c.occ = int8(b)
				} else if int(c.occ) == b {
					c.occ = int8(a)
				}
			}
		}
	}
}

// expand applies the shared per-sample semantics to one decoded state: it
// advances clocks, enumerates the adversarial disturbance choices, and
// appends every post-scheduling successor — together with the disturbance
// bitmask that produced it — to sc's arena. base is consumed (clock-advanced
// in place) and the arena is reset on entry, so callers must consume it
// between calls. The return value is the index of the application whose
// deadline some choice violated, or −1 when every choice stays safe; on a
// violation the arena is truncated mid-choice and must be discarded.
func (v *Verifier) expand(base *cstate, sc *refScratch) int {
	sc.states = sc.states[:0]
	sc.masks = sc.masks[:0]

	// Step 1–2: advance clocks; finish cooldowns.
	for i := 0; i < v.n; i++ {
		switch base.phase[i] {
		case pWaiting:
			base.val[i]++
		case pCooldown:
			if int(base.val[i])+1 >= v.profs[i].R {
				base.phase[i] = pSteady
				base.val[i] = 0
			} else {
				base.val[i]++
			}
		}
	}
	if base.occ >= 0 {
		base.cT++
	}

	// Eligible disturbance set.
	nelig := 0
	for i := 0; i < v.n; i++ {
		if base.phase[i] != pSteady {
			continue
		}
		sc.elig[nelig] = int8(i)
		nelig++
	}

	if v.symGroups != nil {
		return v.expandGrouped(base, sc.elig[:nelig], sc)
	}

	for mask := 0; mask < 1<<nelig; mask++ {
		c := *base
		var m uint32
		for b := 0; b < nelig; b++ {
			if mask&(1<<b) != 0 {
				app := int(sc.elig[b])
				c.phase[app] = pWaiting
				c.val[app] = 0
				m |= 1 << uint(app)
			}
		}
		if viol := v.schedule(&c, m, sc); viol >= 0 {
			return viol
		}
	}
	return -1
}

// expandGrouped is the symmetry-aware disturbance enumeration: eligible
// applications are partitioned into interchangeable groups (same symmetry
// class — identical lane content, since Steady lanes carry val 0), and only
// the number disturbed per group is chosen.
// The branching factor drops from 2^e subsets to Π(|group|+1) count
// vectors; every successor is canonicalised in the arena before the next
// choice runs. All scratch lives in fixed-size stack arrays and sc — this
// runs once per explored state, tens of millions of times per fleet check.
func (v *Verifier) expandGrouped(base *cstate, elig []int8, sc *refScratch) int {
	// members holds the eligible apps reordered group by group;
	// groupEnd[g] is the end offset of group g within it.
	var members [maxApps]int8
	var groupEnd [maxApps]int8
	var groupCls [maxApps]int16 // symmetry class of each group, −1 singleton
	ngroups := 0
	pos := int8(0)
	for _, a := range elig {
		gi := -1
		if cls := v.symOf[a]; cls >= 0 {
			for g := 0; g < ngroups; g++ {
				if groupCls[g] == int16(cls) {
					gi = g
					break
				}
			}
			if gi < 0 {
				gi = ngroups
				groupCls[gi] = int16(cls)
			}
		} else {
			gi = ngroups
			groupCls[gi] = -1
		}
		if gi == ngroups {
			ngroups++
			// New groups open at the end; existing groups grow by shifting
			// the (few) later members right.
			members[pos] = a
			groupEnd[gi] = pos + 1
			pos++
			continue
		}
		insert := groupEnd[gi]
		for j := pos; j > insert; j-- {
			members[j] = members[j-1]
		}
		members[insert] = a
		for g := gi; g < ngroups; g++ {
			groupEnd[g]++
		}
		pos++
	}

	var counts [maxApps]int8
	for {
		c := *base
		var m uint32
		start := int8(0)
		for g := 0; g < ngroups; g++ {
			for k := start; k < start+counts[g]; k++ {
				app := int(members[k])
				c.phase[app] = pWaiting
				c.val[app] = 0
				m |= 1 << uint(app)
			}
			start = groupEnd[g]
		}
		first := len(sc.states)
		if viol := v.schedule(&c, m, sc); viol >= 0 {
			return viol
		}
		for i := first; i < len(sc.states); i++ {
			v.canon(&sc.states[i])
		}
		// Odometer over per-group disturbance counts.
		gi := 0
		for ; gi < ngroups; gi++ {
			size := groupEnd[gi]
			if gi > 0 {
				size -= groupEnd[gi-1]
			}
			counts[gi]++
			if counts[gi] <= size {
				break
			}
			counts[gi] = 0
		}
		if gi == ngroups {
			return -1
		}
	}
}

// schedule applies eviction, granting and the deadline check to c,
// appending the possible post-scheduling states (more than one only with
// nondeterministic tie-breaking) to sc's arena, each paired with the
// disturbance mask m. It returns the violating application's index, or −1;
// on a violation the arena may hold a truncated choice and must be
// discarded by the caller.
func (v *Verifier) schedule(c *cstate, m uint32, sc *refScratch) int {
	// Forced vacate at Tdw+; preemption in [Tdw−, Tdw+).
	if c.occ >= 0 {
		o := int(c.occ)
		dtMin, dtMax, ok := v.profs[o].Lookup(int(c.val[o]))
		if !ok {
			// Cannot happen: grants only occur with a valid window.
			panic("verify: occupant without dwell window")
		}
		evict := false
		if int(c.cT) >= dtMax {
			evict = true
		} else if int(c.cT) >= dtMin {
			if nw := v.waiters(c, &sc.wait); nw > 0 {
				switch v.cfg.Policy {
				case sched.PreemptEager:
					evict = true
				case sched.PreemptLazy:
					u := v.mostUrgent(c, sc.wait[:nw])
					if v.profs[u].TwStar-int(c.val[u]) <= 0 {
						evict = true
					}
				}
			}
		}
		if evict {
			clk := int(c.val[o]) + int(c.cT) // time since disturbance
			if clk >= v.profs[o].R {
				c.phase[o] = pSteady
				c.val[o] = 0
			} else {
				c.phase[o] = pCooldown
				c.val[o] = uint8(clk)
			}
			c.occ = -1
			c.cT = 0
		}
	}

	// Grant: candidate states are built directly in the arena.
	if c.occ < 0 {
		if nw := v.waiters(c, &sc.wait); nw > 0 {
			ncand := v.grantCandidates(c, sc.wait[:nw], &sc.cand)
			granted := false
			for _, g8 := range sc.cand[:ncand] {
				g := int(g8)
				if _, _, ok := v.profs[g].Lookup(int(c.val[g])); !ok {
					continue // past T*w — the miss check below will fire
				}
				sc.states = append(sc.states, *c)
				nc := &sc.states[len(sc.states)-1]
				nc.phase[g] = pGranted
				// val keeps tw (the wait at grant); cT restarts.
				nc.occ = int8(g)
				nc.cT = 0
				if viol := v.missCheck(nc); viol >= 0 {
					return viol
				}
				sc.masks = append(sc.masks, m)
				granted = true
			}
			if granted {
				return -1
			}
		}
	}
	if viol := v.missCheck(c); viol >= 0 {
		return viol
	}
	sc.states = append(sc.states, *c)
	sc.masks = append(sc.masks, m)
	return -1
}

// waiters writes the indices of Waiting applications into buf (ascending)
// and returns how many there are.
func (v *Verifier) waiters(c *cstate, buf *[maxApps]int8) int {
	n := 0
	for i := 0; i < v.n; i++ {
		if c.phase[i] == pWaiting {
			buf[n] = int8(i)
			n++
		}
	}
	return n
}

// mostUrgent returns the waiter with minimum deadline D = T*w − wt, with
// the runtime arbiter's deterministic tie-break.
func (v *Verifier) mostUrgent(c *cstate, w []int8) int {
	best := -1
	bestD, bestTie := 0, 0
	for _, i8 := range w {
		i := int(i8)
		d := v.profs[i].TwStar - int(c.val[i])
		tie := v.profs[i].MaxTdwMinus()
		if best < 0 || d < bestD || (d == bestD && tie < bestTie) {
			best, bestD, bestTie = i, d, tie
		}
	}
	return best
}

// grantCandidates writes into buf the waiters that may legally receive an
// idle slot — the unique most-urgent one (deterministic mode) or all
// waiters tied at the minimum deadline (nondeterministic mode) — and
// returns how many there are.
func (v *Verifier) grantCandidates(c *cstate, w []int8, buf *[maxApps]int8) int {
	if !v.cfg.NondetTies {
		buf[0] = int8(v.mostUrgent(c, w))
		return 1
	}
	minD := 1 << 30
	for _, i := range w {
		if d := v.profs[i].TwStar - int(c.val[i]); d < minD {
			minD = d
		}
	}
	n := 0
	for _, i := range w {
		if v.profs[i].TwStar-int(c.val[i]) == minD {
			buf[n] = i
			n++
		}
	}
	return n
}

// missCheck returns the index of a still-waiting application whose wait has
// reached T*w — the earliest possible future grant (next sample) would
// exceed T*w — or −1.
func (v *Verifier) missCheck(c *cstate) int {
	for i := 0; i < v.n; i++ {
		if c.phase[i] == pWaiting && int(c.val[i]) >= v.profs[i].TwStar {
			return i
		}
	}
	return -1
}

// refSuccessors expands one packed state through the reference — decode,
// expand, pack again — appending the successors to out. masks holds the
// disturbance bitmask of each (it aliases sc and is valid until the next
// call); on a violation out is returned as it came.
func (v *Verifier) refSuccessors(s PackedState, sc *refScratch, out []PackedState) ([]PackedState, []uint32, int) {
	v.unpack(uint64(s), &sc.base)
	if viol := v.expand(&sc.base, sc); viol >= 0 {
		return out, nil, viol
	}
	for i := range sc.states {
		out = append(out, PackedState(v.pack(&sc.states[i])))
	}
	return out, sc.masks, -1
}
