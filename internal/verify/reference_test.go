package verify

// The reference expansion: the runtime arbiter's step (sched.Arbiter's
// Advance and Decide) run over every choice the model leaves open. A
// packed state is decoded (unpack), lifted into the arbiter's State and
// advanced once; then every disturbed set of Steady applications — every
// subset, or under the symmetry quotient every count per group — and,
// under NondetTies, every waiter tied at the smallest deadline is decided
// from that advanced state and projected back to a packed word (pack,
// canon). The rules live in internal/sched alone; this file holds only the
// encoding and the order of the choices, which TestKernelMatchesReference
// and FuzzKernelVsReference hold the kernel to: the same successor list in
// the same order, the same disturbance masks and the same violator.

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

// refScratch is what one reference expansion writes through: the decoded
// state, the successor arena (states plus the disturbance bitmask that
// produced each), the arbiter that decides each choice and the advanced
// state every choice starts from.
type refScratch struct {
	base   cstate
	states []cstate // successor arena, reset by expand
	masks  []uint32 // disturbance bitmask per successor, parallel to states

	arb  *sched.Arbiter
	adv  sched.State   // the lifted state after Advance
	elig [maxApps]int8 // eligible-disturbance buffer
	dist [maxApps]int  // the disturbed set of one choice
}

// newRefScratch returns a scratch whose arbiter decides by v's profiles
// and preemption policy.
func (v *Verifier) newRefScratch() *refScratch {
	return &refScratch{
		arb: sched.NewArbiter(v.profs, sched.Options{Policy: v.cfg.Policy}),
		adv: sched.State{Apps: make([]sched.AppState, v.n)},
	}
}

// schedPhase maps a lane's phase to the arbiter's.
var schedPhase = [...]sched.Phase{pSteady: sched.Steady, pWaiting: sched.Waiting, pGranted: sched.Granted, pCooldown: sched.Cooldown}

// lift writes c into st as the arbiter holds it: the occupant's clock runs
// on through its dwell, and its window is the one latched at grant. It
// refuses (false) an occupant whose wait at grant has no dwell window,
// which no search reaches.
func (v *Verifier) lift(c *cstate, st *sched.State) bool {
	for i := range st.Apps {
		st.Apps[i] = sched.AppState{Phase: schedPhase[c.phase[i]], Clock: int(c.val[i])}
	}
	st.Occupant, st.Dwell = int(c.occ), int(c.cT)
	if o := st.Occupant; o >= 0 {
		var ok bool
		if st.DtMin, st.DtMax, ok = v.profs[o].Lookup(int(c.val[o])); !ok {
			return false
		}
		st.Apps[o].Clock += st.Dwell
	}
	return true
}

// project writes the arbiter's st back into c as the packed model holds
// it: a Granted lane keeps its wait at grant, and a Cooldown lane whose
// clock has reached r is Steady with val 0, as the kernel's eviction makes
// it. st holds no Failed lane: a miss ends the expansion.
func (v *Verifier) project(st *sched.State, c *cstate) {
	*c = cstate{occ: int8(st.Occupant)}
	for i, a := range st.Apps {
		switch a.Phase {
		case sched.Waiting:
			c.phase[i], c.val[i] = pWaiting, uint8(a.Clock)
		case sched.Granted:
			c.phase[i], c.val[i], c.cT = pGranted, uint8(a.Clock-st.Dwell), uint8(st.Dwell)
		case sched.Cooldown:
			if a.Clock < v.profs[i].R {
				c.phase[i], c.val[i] = pCooldown, uint8(a.Clock)
			}
		}
	}
}

// restore sets dst to src, keeping dst's own per-application storage.
func restore(dst, src *sched.State) {
	apps := dst.Apps
	*dst = *src
	dst.Apps = apps
	copy(apps, src.Apps)
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

// expand lifts base into the arbiter, advances it, enumerates the
// adversarial disturbance choices and appends every successor — together
// with the disturbance bitmask that produced it — to sc's arena, which is
// reset on entry. The return value is the index of the application whose
// deadline some choice violated, or −1 when every choice stays safe; on a
// violation the arena is truncated mid-choice and must be discarded. ok is
// false when the lift refuses base.
func (v *Verifier) expand(base *cstate, sc *refScratch) (viol int, ok bool) {
	sc.states = sc.states[:0]
	sc.masks = sc.masks[:0]
	if !v.lift(base, &sc.arb.State) {
		return -1, false
	}
	sc.arb.Advance()
	restore(&sc.adv, &sc.arb.State)

	// Eligible disturbance set.
	nelig := 0
	for i, a := range sc.adv.Apps {
		if a.Phase == sched.Steady {
			sc.elig[nelig] = int8(i)
			nelig++
		}
	}

	if v.symGroups != nil {
		return v.expandGrouped(sc.elig[:nelig], sc), true
	}

	for mask := 0; mask < 1<<nelig; mask++ {
		dist := sc.dist[:0]
		var m uint32
		for b := 0; b < nelig; b++ {
			if mask&(1<<b) != 0 {
				app := int(sc.elig[b])
				dist = append(dist, app)
				m |= 1 << uint(app)
			}
		}
		if viol := v.decide(dist, m, sc); viol >= 0 {
			return viol, true
		}
	}
	return -1, true
}

// expandGrouped is the symmetry-aware disturbance enumeration: eligible
// applications are partitioned into interchangeable groups (same symmetry
// class — identical lane content, since Steady lanes carry val 0), and only
// the number disturbed per group is chosen: Π(|group|+1) count vectors
// instead of 2^e subsets, the first members of each group disturbed.
func (v *Verifier) expandGrouped(elig []int8, sc *refScratch) int {
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
		dist := sc.dist[:0]
		var m uint32
		start := int8(0)
		for g := 0; g < ngroups; g++ {
			for k := start; k < start+counts[g]; k++ {
				app := int(members[k])
				dist = append(dist, app)
				m |= 1 << uint(app)
			}
			start = groupEnd[g]
		}
		if viol := v.decide(dist, m, sc); viol >= 0 {
			return viol
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

// decide runs one disturbed set through the arbiter's Decide from the
// advanced state — once, or under NondetTies once per waiter tied at the
// smallest deadline, in index order — and appends each canonical successor
// with the set's mask m. It returns the violator of the first choice that
// misses, or −1.
func (v *Verifier) decide(dist []int, m uint32, sc *refScratch) int {
	for k := 0; ; k++ {
		restore(&sc.arb.State, &sc.adv)
		tie := -1
		if v.cfg.NondetTies {
			tie = k
		}
		ties, missed := sc.arb.Decide(dist, tie)
		if missed >= 0 {
			return missed
		}
		sc.states = append(sc.states, cstate{})
		c := &sc.states[len(sc.states)-1]
		v.project(&sc.arb.State, c)
		v.canon(c)
		sc.masks = append(sc.masks, m)
		if k+1 >= ties || tie < 0 {
			return -1
		}
	}
}

// refSuccessors expands one packed state through the reference — decode,
// expand, pack again — appending the successors to out. masks holds the
// disturbance bitmask of each (it aliases sc and is valid until the next
// call); on a violation out is returned as it came. ok is false when the
// lift refuses the state (an occupant without a dwell window).
func (v *Verifier) refSuccessors(s PackedState, sc *refScratch, out []PackedState) (_ []PackedState, masks []uint32, viol int, ok bool) {
	v.unpack(uint64(s), &sc.base)
	if viol, ok = v.expand(&sc.base, sc); !ok || viol >= 0 {
		return out, nil, viol, ok
	}
	for i := range sc.states {
		out = append(out, PackedState(v.pack(&sc.states[i])))
	}
	return out, sc.masks, -1, true
}
