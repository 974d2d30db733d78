package verify

// The expansion kernel: the packed state is the working form. One state is
// expanded on its lane words — phase classes, clock advance and cooldown
// expiry are word-parallel (SWAR), everything that concerns a few lanes
// (waiters, the occupant) is a bit-scan — and every successor is assembled
// as words, never decoded. The semantics, the order of the successors and
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

// The multi-word ("wide") encoding packs sets whose composed state exceeds
// 64 bits: applications occupy straddle-free lanes of appBits bits each,
// ⌊64/appBits⌋ lanes per word, filling words 0..wideAppWords−1; the final
// header word carries the occupant index (low byte, wideIdle = slot idle)
// and the occupant dwell cT (next 4 bits). A lane is at most 9 bits (2
// phase bits and a clock of ⌈log₂ 127⌉), so a word holds at least 7 lanes
// and two lane words hold the maxApps applications. DESIGN.md §2 has both
// layouts.
const (
	wideWords    = 3             // words per wide state (24 bytes)
	wideAppWords = wideWords - 1 // words carrying application lanes
	wideIdle     = 0xFF          // header occupant byte when the slot is idle
)

// stateKey is a packed state as one comparable value: the one word of the
// narrow encoding or the wideWords words of the wide one. The drivers, the
// visited set and the kernel's output are instantiated once per encoding,
// and len(k) is a constant of each instantiation.
type stateKey interface {
	[1]uint64 | [wideWords]uint64
}

// laneWords is the lane part of a packed state: the one word of the narrow
// encoding (header stripped) or the wideAppWords lane words of the wide one.
// expandLanes is instantiated once per encoding; the occupant and its dwell
// travel beside the lanes.
type laneWords interface {
	[1]uint64 | [wideAppWords]uint64
}

// initialState returns the all-Steady, slot-idle state: zero lanes under the
// idle occupant, 0xF in the one word or wideIdle in the wide header.
func initialState[K stateKey](v *Verifier) (k K) {
	if len(k) == 1 {
		k[0] = 0xF << v.occShift
	} else {
		k[len(k)-1] = wideIdle
	}
	return k
}

// dwell is one row of an application's switching profile: the window
// [Tdw−, Tdw+] of a grant after a given wait.
type dwell struct{ min, max uint8 }

// kernel is the per-set table the expansion reads instead of the profiles.
// Both encodings put application a at bit shift[a] of lane word word[a]
// (a set that fits one word has every lane in word 0 either way), so one
// table serves both.
type kernel struct {
	valMask     uint64 // 1<<valBits − 1
	laneBits    uint   // width of a lane: its phase and clock
	eager, lazy bool   // Config.Policy

	// Per lane word: phase bit 0 of every lane, the lanes with T*w = 0, and
	// for the cooldown-expiry test r − 1 in every clock field, the clock
	// fields, the fields without their top bit and the top bits alone (the
	// lanes' phase bit 1 when the clock has no bits at all, r = 1).
	p0, zeroTw, rm1, val, valLow, valTop [wideAppWords]uint64
	appAt                                [wideAppWords][64]uint8 // bit position → application

	// Per application: its lane, r, T*w, urgency key base and dwell rows.
	word, shift, r, tw [maxApps]uint8
	urg                [maxApps]int32 // T*w<<8, plus tie-break key and index under deterministic ties
	row                [maxApps]uint16
	rows               []dwell // rows[row[a]+w]: the window of a grant to a after waiting w ≤ T*w

	class [][wideAppWords]uint64 // phase-bit-0 mask of every symmetry class

	// layout holds, per word of a state, the bits its lanes and header may
	// set, and twv, per lane word, T*w in every clock field: what
	// Expander.CheckWords holds a state from a peer or a disk to.
	layout [wideWords]uint64
	twv    [wideAppWords]uint64
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
		k, sh := a/v.lanes, uint(a%v.lanes)*v.appBits
		t.word[a], t.shift[a], t.r[a], t.tw[a] = uint8(k), uint8(sh), uint8(p.R), uint8(p.TwStar)
		t.urg[a] = int32(p.TwStar) << 8
		if !v.cfg.NondetTies {
			t.urg[a] |= int32(tie<<4 | a)
		}
		t.p0[k] |= 1 << sh
		t.layout[k] |= (1<<v.appBits - 1) << sh
		if p.TwStar == 0 {
			t.zeroTw[k] |= 1 << sh
		}
		t.rm1[k] |= uint64(p.R-1) << (sh + phaseBits)
		t.twv[k] |= uint64(p.TwStar) << (sh + phaseBits)
		t.val[k] |= t.valMask << (sh + phaseBits)
		t.valTop[k] |= 1 << (sh + t.laneBits - 1)
		t.appAt[k][sh] = uint8(a)
		t.row[a] = uint16(len(t.rows))
		for w := 0; w <= p.TwStar; w++ {
			j := (w + p.Granularity - 1) / p.Granularity
			t.rows = append(t.rows, dwell{uint8(p.TdwMinus[j]), uint8(p.TdwPlus[j])})
		}
	}
	for k := range t.val {
		t.valLow[k] = t.val[k] &^ t.valTop[k]
	}
	if v.wide {
		t.layout[wideWords-1] = 0xFFF // occupant byte and dwell
	} else {
		t.layout[0] |= 0xFF << v.occShift
	}
	for _, g := range v.symGroups {
		var m [wideAppWords]uint64
		for _, a := range g {
			m[t.word[a]] |= 1 << t.shift[a]
		}
		t.class = append(t.class, m)
	}
	return nil
}

// appOf returns the application whose lane holds the lowest set bit of m
// (a mask of phase-bit-0 positions), or −1.
func appOf[W laneWords](t *kernel, m W) int {
	for k := 0; k < len(m); k++ {
		if m[k] != 0 {
			return int(t.appAt[k][bits.TrailingZeros64(m[k])&63])
		}
	}
	return -1
}

// expandLanes applies the per-sample semantics to one packed state — lane
// words w, occupant occ (−1 idle) with dwell cT — and appends every
// successor to out as its encoding's key: [1]uint64 for [1]uint64 lanes,
// the lane words and the header for wide ones. masks, when non-nil, receives the
// disturbed-application bitmask of every successor. The third result is the
// application whose deadline some choice violates, or −1; on a violation
// out and masks are returned as they came.
//
//	advance   b0 = w & p0, b1 = w>>1 & p0 split the lanes into Waiting
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
func expandLanes[W laneWords, K stateKey](v *Verifier, sc *expandScratch, w W, occ int, cT uint64, out []K, masks []uint32) ([]K, []uint32, int) {
	t := &v.kt
	n0, m0 := len(out), len(masks)

	// Advance the clocks. Base waiters are keyed on the way, on the clock
	// they are about to have; a negative key is a waiter already past T*w.
	var zero, wait, elig, cand0, urg0 W
	minKey0 := int32(math.MaxInt32)
	for k := 0; k < len(w); k++ {
		x, p0 := w[k], t.p0[k]
		b0, b1 := x&p0, x>>1&p0
		wt, cool := b0&^b1, b0&b1
		for m := wt; m != 0; m &= m - 1 {
			pos := bits.TrailingZeros64(m) & 63
			a := t.appAt[k][pos]
			key := t.urg[a] - int32(x>>((pos+phaseBits)&63)&t.valMask+1)<<8
			if key < minKey0 {
				minKey0, cand0 = key, zero
			}
			if key == minKey0 {
				cand0[k] |= m & -m
			}
			if key < 256 {
				urg0[k] |= m & -m
			}
		}
		z := (x ^ t.rm1[k]) & t.val[k]
		exp := ^((z&t.valLow[k] + t.valLow[k]) | z) & t.valTop[k] >> ((t.laneBits - 1) & 63) & cool
		x &^= exp<<(t.laneBits&63) - exp
		x += (wt | cool&^exp) << phaseBits
		w[k], wait[k], elig[k] = x, wt, p0&^(b0|b1)|exp
	}

	// The occupant: whether it must or may leave, and the lane it leaves.
	forced, inWin := false, false
	var oword, olane, omask uint64
	if occ >= 0 {
		cT++
		sh := uint(t.shift[occ])
		oword = uint64(t.word[occ])
		tw := w[oword] >> ((sh + phaseBits) & 63) & t.valMask
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

	var sub W
	for {
		// The choice: its lanes, its waiters and their urgency.
		cw, minKey, cand, urg := w, minKey0, cand0, urg0
		var m uint32
		var anyWait, anyUrg uint64
		for k := 0; k < len(w); k++ {
			s := sub[k]
			cw[k] |= s
			urg[k] |= s & t.zeroTw[k]
			for ; s != 0; s &= s - 1 {
				a := t.appAt[k][bits.TrailingZeros64(s)&63]
				m |= 1 << a
				if key := t.urg[a]; key < minKey {
					minKey, cand = key, zero
				}
				if t.urg[a] == minKey {
					cand[k] |= s & -s
				}
			}
			anyWait |= wait[k] | sub[k]
			anyUrg |= urg[k]
		}

		// Forced vacate at Tdw+; preemption in [Tdw−, Tdw+).
		o, ct := occ, cT
		if occ >= 0 && (forced || inWin && (t.eager && anyWait != 0 || t.lazy && anyUrg != 0)) {
			cw[oword] = cw[oword]&^omask | olane
			o, ct = -1, 0
		}

		if o < 0 && anyWait != 0 {
			// Grant: Waiting → Granted is a flip of both phase bits; the
			// clock keeps the wait at grant and the dwell restarts.
			for k := 0; k < len(w); k++ {
				for c := cand[k]; c != 0; c &= c - 1 {
					late, nc := urg, cw
					late[k] &^= c & -c
					if viol := appOf(t, late); viol >= 0 {
						return out[:n0], masks[:m0], viol
					}
					nc[k] ^= (c & -c) * 3
					g := int(t.appAt[k][bits.TrailingZeros64(c)&63])
					if t.class != nil {
						nc, g = canonLanes(v, nc, g)
					}
					out = put(v, out, nc, g, 0)
					if masks != nil {
						masks = append(masks, m)
					}
				}
			}
		} else {
			if anyUrg != 0 {
				return out[:n0], masks[:m0], appOf(t, urg)
			}
			if t.class != nil {
				cw, o = canonLanes(v, cw, o)
			}
			out = put(v, out, cw, o, ct)
			if masks != nil {
				masks = append(masks, m)
			}
		}

		// Next choice.
		if t.class == nil {
			k := 0
			for ; k < len(w); k++ {
				if sub[k] = (sub[k] - elig[k]) & elig[k]; sub[k] != 0 {
					break
				}
			}
			if k == len(w) {
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
func groupEligible[W laneWords](v *Verifier, sc *expandScratch, rest W) int {
	t := &v.kt
	for ngrp := 0; ; ngrp++ {
		a := appOf(t, rest)
		if a < 0 {
			return ngrp
		}
		var g W
		if cls := v.symOf[a]; cls < 0 {
			g[t.word[a]] = 1 << t.shift[a]
		} else {
			for k := 0; k < len(rest); k++ {
				g[k] = rest[k] & t.class[cls][k]
			}
		}
		for k := 0; k < len(rest); k++ {
			rest[k] &^= g[k]
			sc.grp[ngrp][k] = g[k]
		}
	}
}

// nextCounts advances the quotient's choice: only the number disturbed per
// group is chosen, an odometer with group 0 turning fastest, and a count of
// c takes the group's c lowest lanes. It reports false after the last choice.
func nextCounts[W laneWords](sc *expandScratch, ngrp int, sub W) (W, bool) {
	for gi := 0; gi < ngrp; gi++ {
		for k := 0; k < len(sub); k++ {
			if rem := sc.grp[gi][k] &^ sub[k]; rem != 0 {
				sub[k] |= rem & -rem
				return sub, true
			}
		}
		for k := 0; k < len(sub); k++ {
			sub[k] &^= sc.grp[gi][k]
		}
	}
	return sub, false
}

// put appends one successor as its encoding's key: lanes and header in one
// word, or the lane words followed by the header word.
func put[W laneWords, K stateKey](v *Verifier, out []K, cw W, occ int, cT uint64) []K {
	var s K
	if len(cw) == 1 {
		s[0] = cw[0] | uint64(occ)&0xF<<(v.occShift&63) | cT<<(v.ctShift&63)
		return append(out, s)
	}
	for k := 0; k < len(cw); k++ {
		s[k] = cw[k]
	}
	s[len(s)-1] = uint64(occ)&wideIdle | cT<<8
	return append(out, s)
}

// canonLanes rewrites a state into the canonical representative of its
// symmetry orbit: within every group of identical-profile applications the
// lanes are sorted by content — a lane read as an integer orders by clock,
// then phase — and the occupant index follows its lane.
func canonLanes[W laneWords](v *Verifier, cw W, occ int) (W, int) {
	t := &v.kt
	lane := uint64(1)<<(v.appBits&63) - 1
	for gi, g := range v.symGroups {
		var l [maxApps]uint64
		sorted := true
		for i, a := range g {
			l[i] = cw[t.word[a]] >> (t.shift[a] & 63) & lane
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
		var lanes W
		for i, a := range g {
			lanes[t.word[a]] |= l[i] << (t.shift[a] & 63)
		}
		for k := 0; k < len(cw); k++ {
			cw[k] = cw[k]&^(t.class[gi][k]*lane) | lanes[k]
		}
	}
	return cw, occ
}

// successors expands one packed state, appending its successors to out.
// choices, when non-nil, records parallel to out the disturbance subset
// (bitmask) that produced each successor. The returned violator index is −1
// when every disturbance choice stays safe; on a violation out and choices
// carry no new entries.
func successors[K stateKey](v *Verifier, s K, sc *expandScratch, out []K, choices []uint32) ([]K, []uint32, int) {
	if len(s) == 1 {
		occ := int(s[0] >> v.occShift & 0xF)
		if occ == 0xF {
			occ = -1
		}
		return expandLanes(v, sc, [1]uint64{s[0] & (1<<v.occShift - 1)}, occ, s[0]>>v.ctShift&0xF, out, choices)
	}
	var w [wideAppWords]uint64
	for k := range w {
		w[k] = s[k]
	}
	h := s[len(s)-1]
	occ := int(h & 0xFF)
	if occ == wideIdle {
		occ = -1
	}
	return expandLanes(v, sc, w, occ, h>>8&0xF, out, choices)
}

// expandScratch is what a search goroutine keeps between expansions: the
// symmetry quotient's groups of the state being expanded. Each search
// goroutine owns one; the kernel appends straight to the caller's buffer,
// so once that has grown to the verifier's maximum fanout the hot path
// performs no allocation (TestExpansionCoreAllocFree gates this).
type expandScratch struct {
	grp [maxApps][wideAppWords]uint64
}
