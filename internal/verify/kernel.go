package verify

// The expansion kernel: the packed state is the working form. One state is
// expanded on its word — phase classes, clock advance and cooldown expiry
// are word-parallel (SWAR), everything that concerns a few lanes (waiters,
// the occupant) is a bit-scan — and every successor is assembled as a
// word, never decoded. The semantics, the order of the successors and
// the violator are those of the reference expansion (reference_test.go),
// which TestKernelMatchesReference and FuzzKernelVsReference hold the
// kernel to, state by state.
//
// No add carries out of a lane: a stored Waiting clock is below T*w < r, a
// stored Cooldown clock at most r − 1 and its expiry is taken before the
// increment, and r − 1 fits the clock field by construction
// (Verifier.valBits). DESIGN.md §2 has the identities.

import (
	"fmt"
	"math"
	"math/bits"

	"tightcps/internal/sched"
)

// initialState returns the all-Steady, slot-idle state: zero lanes under the
// idle occupant 0xF.
func initialState(v *Verifier) uint64 { return 0xF << v.occShift }

// dwell is one row of an application's switching profile: the window
// [Tdw−, Tdw+] of a grant after a given wait.
type dwell struct{ min, max uint8 }

// kernel is the per-set table the expansion reads instead of the profiles:
// application a's lane is at bit shift[a] of the state word.
type kernel struct {
	valMask     uint64 // 1<<valBits − 1
	laneBits    uint   // width of a lane: its phase and clock
	eager, lazy bool   // Config.Policy

	// Phase bit 0 of every lane, the lanes with T*w = 0, and for the
	// cooldown-expiry test r − 1 in every clock field, the clock fields,
	// the fields without their top bit and the top bits alone (the lanes'
	// phase bit 1 when the clock has no bits at all, r = 1).
	p0, zeroTw, rm1, val, valLow, valTop uint64
	appAt                                [64]uint8 // bit position → application

	// Per application: its lane, r, T*w, urgency key base and dwell rows.
	shift, r, tw [maxApps]uint8
	urg          [maxApps]int32 // T*w<<8, plus tie-break key and index under deterministic ties
	row          [maxApps]uint16
	rows         []dwell // rows[row[a]+w]: the window of a grant to a after waiting w ≤ T*w

	class []uint64 // phase-bit-0 mask of every symmetry class

	// layout holds the bits the lanes and the header may set, and twv T*w
	// in every clock field: what Expander.CheckWords holds a state from a
	// peer or a disk to.
	layout, twv uint64
}

// buildKernel validates the dwell tables and fills the kernel table.
func (v *Verifier) buildKernel() error {
	t := &v.kt
	t.valMask = 1<<v.valBits - 1
	t.laneBits = v.appBits
	t.eager, t.lazy = v.cfg.Policy == sched.PreemptEager, v.cfg.Policy == sched.PreemptLazy
	nrows := 0
	for _, p := range v.profs {
		nrows += p.TwStar + 1
	}
	t.rows = make([]dwell, 0, nrows)
	for a, p := range v.profs {
		if p.Granularity < 1 {
			return fmt.Errorf("%w: %s has granularity %d, want ≥ 1", ErrEncoding, p.Name, p.Granularity)
		}
		last := (p.TwStar + p.Granularity - 1) / p.Granularity
		if len(p.TdwMinus) <= last || len(p.TdwPlus) <= last {
			return fmt.Errorf("%w: %s has dwell tables of %d/%d rows, T*w=%d at granularity %d needs %d",
				ErrEncoding, p.Name, len(p.TdwMinus), len(p.TdwPlus), p.TwStar, p.Granularity, last+1)
		}
		tie := 0
		for j := range max(len(p.TdwMinus), len(p.TdwPlus)) {
			lo, hi := 0, maxTdw // a row one table lacks is held to the other's bound
			if j < len(p.TdwMinus) {
				lo = p.TdwMinus[j]
			}
			if j < len(p.TdwPlus) {
				hi = p.TdwPlus[j]
			}
			if hi > maxTdw {
				return fmt.Errorf("%w: %s has Tdw+=%d samples, dwells hold at most %d", ErrEncoding, p.Name, hi, maxTdw)
			}
			if lo < 0 || lo > hi {
				return fmt.Errorf("%w: %s has no dwell window at row %d: Tdw−=%d, Tdw+=%d, want 0 ≤ Tdw− ≤ Tdw+ ≤ %d",
					ErrEncoding, p.Name, j, lo, hi, maxTdw)
			}
			tie = max(tie, lo)
		}
		sh := uint(a) * v.appBits
		t.shift[a], t.r[a], t.tw[a] = uint8(sh), uint8(p.R), uint8(p.TwStar)
		t.urg[a] = int32(p.TwStar) << 8
		if !v.cfg.NondetTies {
			t.urg[a] |= int32(tie<<4 | a)
		}
		t.p0 |= 1 << sh
		t.layout |= (1<<v.appBits - 1) << sh
		if p.TwStar == 0 {
			t.zeroTw |= 1 << sh
		}
		t.rm1 |= uint64(p.R-1) << (sh + phaseBits)
		t.twv |= uint64(p.TwStar) << (sh + phaseBits)
		t.val |= t.valMask << (sh + phaseBits)
		t.valTop |= 1 << (sh + t.laneBits - 1)
		t.appAt[sh] = uint8(a)
		t.row[a] = uint16(len(t.rows))
		for w := 0; w <= p.TwStar; w++ {
			j := (w + p.Granularity - 1) / p.Granularity
			t.rows = append(t.rows, dwell{uint8(p.TdwMinus[j]), uint8(p.TdwPlus[j])})
		}
	}
	t.valLow = t.val &^ t.valTop
	t.layout |= 0xFF << v.occShift // occupant and dwell
	for _, g := range v.symGroups {
		var m uint64
		for _, a := range g {
			m |= 1 << t.shift[a]
		}
		t.class = append(t.class, m)
	}
	return nil
}

// appOf returns the application whose lane holds the lowest set bit of m
// (a mask of phase-bit-0 positions), or −1.
func appOf(t *kernel, m uint64) int {
	if m == 0 {
		return -1
	}
	return int(t.appAt[bits.TrailingZeros64(m)&63])
}

// successors applies the per-sample semantics to one packed state s and
// appends every successor to out. masks, when non-nil, receives the
// disturbed-application bitmask of every successor. The third result is the
// application whose deadline some choice violates, or −1; on a violation
// out and masks are returned as they came.
//
//	advance   b0 = w & p0, b1 = w>>1 & p0 split the lanes w into Waiting
//	          (b0&^b1), Cooldown (b0&b1) and Steady (p0&^(b0|b1)); a Cooldown
//	          clock at r − 1 expires to Steady (an exact zero-field test on
//	          (w^rm1)&val), every other Waiting or Cooldown clock takes one
//	          add of (mask << phaseBits).
//	choices   sub = (sub − elig) & elig walks the subsets of the eligible
//	          lanes in the order of a counting mask; under the symmetry
//	          quotient an odometer of per-group counts takes each group's
//	          lowest lanes. A choice is w | sub.
//	schedule  waiters carry an urgency key (T*w − wait)<<8 | tie-break; the
//	          minimum key is the grant candidate (all lanes at it under
//	          nondeterministic ties), key < 256 is a waiter at its deadline.
func successors(v *Verifier, s uint64, sc *expandScratch, out []uint64, masks []uint32) ([]uint64, []uint32, int) {
	t := &v.kt
	n0, m0 := len(out), len(masks)
	w, occ, cT := s&(1<<(v.occShift&63)-1), int(s>>(v.occShift&63)&0xF), s>>(v.ctShift&63)&0xF
	if occ == 0xF {
		occ = -1
	}

	// Advance the clocks. Base waiters are keyed on the way, on the clock
	// they are about to have; a negative key is a waiter already past T*w.
	b0, b1 := w&t.p0, w>>1&t.p0
	wait, cool := b0&^b1, b0&b1
	var cand0, urg0 uint64
	minKey0 := int32(math.MaxInt32)
	for m := wait; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros64(m) & 63
		a := t.appAt[pos]
		key := t.urg[a] - int32(w>>((pos+phaseBits)&63)&t.valMask+1)<<8
		if key < minKey0 {
			minKey0, cand0 = key, 0
		}
		if key == minKey0 {
			cand0 |= m & -m
		}
		if key < 256 {
			urg0 |= m & -m
		}
	}
	z := (w ^ t.rm1) & t.val
	exp := ^((z&t.valLow + t.valLow) | z) & t.valTop >> ((t.laneBits - 1) & 63) & cool
	w &^= exp<<(t.laneBits&63) - exp
	w += (wait | cool&^exp) << phaseBits
	elig := t.p0&^(b0|b1) | exp

	// The occupant: whether it must or may leave, and the lane it leaves.
	forced, inWin := false, false
	var olane, omask uint64
	if occ >= 0 {
		cT++
		sh := uint(t.shift[occ])
		tw := w >> ((sh + phaseBits) & 63) & t.valMask
		if tw > uint64(t.tw[occ]) {
			// Cannot happen: grants only occur with a valid window.
			panic("verify: occupant without dwell window")
		}
		d := t.rows[uint64(t.row[occ])+tw]
		forced, inWin = cT >= uint64(d.max), cT >= uint64(d.min)
		if clk := tw + cT; clk < uint64(t.r[occ]) {
			olane = (uint64(pCooldown) | clk<<phaseBits) << (sh & 63)
		}
		omask = (1<<(t.laneBits&63) - 1) << (sh & 63)
	}
	if minKey0 < 0 {
		return out, masks, appOf(t, urg0) // no grant can save a waiter past T*w
	}

	ngrp := 0
	if t.class != nil {
		ngrp = groupEligible(v, sc, elig)
	}

	var sub uint64
	for {
		// The choice: its lanes, its waiters and their urgency.
		cw, minKey, cand, urg := w|sub, minKey0, cand0, urg0|sub&t.zeroTw
		var m uint32
		for c := sub; c != 0; c &= c - 1 {
			a := t.appAt[bits.TrailingZeros64(c)&63]
			m |= 1 << a
			if key := t.urg[a]; key < minKey {
				minKey, cand = key, 0
			}
			if t.urg[a] == minKey {
				cand |= c & -c
			}
		}
		anyWait := wait | sub

		// Forced vacate at Tdw+; preemption in [Tdw−, Tdw+).
		o, ct := occ, cT
		if occ >= 0 && (forced || inWin && (t.eager && anyWait != 0 || t.lazy && urg != 0)) {
			cw = cw&^omask | olane
			o, ct = -1, 0
		}

		if o < 0 && anyWait != 0 {
			// Grant: Waiting → Granted is a flip of both phase bits; the
			// clock keeps the wait at grant and the dwell restarts.
			for c := cand; c != 0; c &= c - 1 {
				if viol := appOf(t, urg&^(c&-c)); viol >= 0 {
					return out[:n0], masks[:m0], viol
				}
				nc := cw ^ (c&-c)*3
				g := int(t.appAt[bits.TrailingZeros64(c)&63])
				if t.class != nil {
					nc, g = canonLanes(v, nc, g)
				}
				out = append(out, put(v, nc, g, 0))
				if masks != nil {
					masks = append(masks, m)
				}
			}
		} else {
			if urg != 0 {
				return out[:n0], masks[:m0], appOf(t, urg)
			}
			if t.class != nil {
				cw, o = canonLanes(v, cw, o)
			}
			out = append(out, put(v, cw, o, ct))
			if masks != nil {
				masks = append(masks, m)
			}
		}

		// Next choice.
		if t.class == nil {
			if sub = (sub - elig) & elig; sub == 0 {
				return out, masks, -1
			}
			continue
		}
		var more bool
		if sub, more = nextCounts(sc, ngrp, sub); !more {
			return out, masks, -1
		}
	}
}

// groupEligible partitions a state's eligible lanes for the symmetry
// quotient into sc.grp and returns the number of groups: the eligible
// applications of one class form one group, any other application its own,
// and the groups are ordered by their lowest member.
func groupEligible(v *Verifier, sc *expandScratch, rest uint64) int {
	t := &v.kt
	for ngrp := 0; ; ngrp++ {
		a := appOf(t, rest)
		if a < 0 {
			return ngrp
		}
		g := uint64(1) << t.shift[a]
		if cls := v.symOf[a]; cls >= 0 {
			g = rest & t.class[cls]
		}
		rest &^= g
		sc.grp[ngrp] = g
	}
}

// nextCounts advances the quotient's choice: only the number disturbed per
// group is chosen, an odometer with group 0 turning fastest, and a count of
// c takes the group's c lowest lanes. It reports false after the last choice.
func nextCounts(sc *expandScratch, ngrp int, sub uint64) (uint64, bool) {
	for gi := 0; gi < ngrp; gi++ {
		if rem := sc.grp[gi] &^ sub; rem != 0 {
			return sub | rem&-rem, true
		}
		sub &^= sc.grp[gi]
	}
	return sub, false
}

// put packs a successor's lanes cw, occupant and dwell into one state.
func put(v *Verifier, cw uint64, occ int, cT uint64) uint64 {
	return cw | uint64(occ)&0xF<<(v.occShift&63) | cT<<(v.ctShift&63)
}

// canonLanes rewrites a state into the canonical representative of its
// symmetry orbit: within every group of identical-profile applications the
// lanes are sorted by content — a lane read as an integer orders by clock,
// then phase — and the occupant index follows its lane.
func canonLanes(v *Verifier, cw uint64, occ int) (uint64, int) {
	t := &v.kt
	lane := uint64(1)<<(v.appBits&63) - 1
	for gi, g := range v.symGroups {
		var l [maxApps]uint64
		sorted := true
		for i, a := range g {
			l[i] = cw >> (t.shift[a] & 63) & lane
			sorted = sorted && (i == 0 || l[i-1] <= l[i])
		}
		if sorted {
			continue
		}
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && l[j] < l[j-1]; j-- {
				l[j], l[j-1] = l[j-1], l[j]
				if occ == g[j] {
					occ = g[j-1]
				} else if occ == g[j-1] {
					occ = g[j]
				}
			}
		}
		var lanes uint64
		for i, a := range g {
			lanes |= l[i] << (t.shift[a] & 63)
		}
		cw = cw&^(t.class[gi]*lane) | lanes
	}
	return cw, occ
}

// expandScratch is what a search goroutine keeps between expansions: the
// symmetry quotient's groups of the state being expanded. Each search
// goroutine owns one; the kernel appends straight to the caller's buffer,
// so once that has grown to the verifier's maximum fanout the hot path
// performs no allocation (TestExpansionCoreAllocFree gates this).
type expandScratch struct {
	grp [maxApps]uint64
}
