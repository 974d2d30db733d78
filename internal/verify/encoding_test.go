package verify

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"tightcps/internal/switching"
)

// fleet builds n identical synthetic profiles (distinct names), the
// symmetric workload the symmetry quotient targets.
func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

// oneWord reports whether a set fits the packed state: at most maxApps
// applications whose lanes of 2 + ⌈log₂ max r⌉ bits and the 8-bit header
// fill at most 64 bits.
func oneWord(ps []*switching.Profile) bool {
	maxR := 1
	for _, p := range ps {
		maxR = max(maxR, p.R)
	}
	return len(ps) <= maxApps && len(ps)*(phaseBits+bits.Len(uint(maxR-1)))+8 <= 64
}

// checkRoundTrip holds c to the layout contract: it packs to a nonzero word
// — never the empty-slot sentinel — that decodes back to c.
func checkRoundTrip(t testing.TB, v *Verifier, c *cstate) {
	t.Helper()
	var d cstate
	s := v.pack(c)
	if v.unpack(s, &d); s == 0 || d != *c {
		t.Fatalf("round trip (valBits %d): %+v → %#x → %+v", v.valBits, *c, s, d)
	}
}

// TestEncodingBoundary pins the one-word edge in every band of r that
// shares a clock width (r = 1, 2, 3–4, 5–8, …, 65–127): at both ends of the
// band the clock field is bits.Len(r − 1) wide, the largest n that fits —
// ⌊56 / (2 + clock bits)⌋, or maxApps where that is smaller — verifies, and
// its fullest state, every lane cooling down at r − 1, round-trips. The
// next n is refused with ErrEncoding naming the limit it passes: the one
// word, or the application cap. maxApps + 1 is refused in every band.
func TestEncodingBoundary(t *testing.T) {
	for _, band := range []struct {
		lo, hi  int
		valBits uint
	}{{1, 1, 0}, {2, 2, 1}, {3, 4, 2}, {5, 8, 3}, {9, 16, 4}, {17, 32, 5}, {33, 64, 6}, {65, maxClock, 7}} {
		fit := min(maxApps, 56/int(phaseBits+band.valBits))
		for _, r := range []int{band.lo, band.hi} {
			name := fmt.Sprintf("n=%d r=%d", fit, r)
			cfg := Config{NondetTies: true, Workers: 1, MaxStates: 100_000}
			ps := fleet(fit, 0, 1, 2, r) // T*w = 0: two disturbances at once miss
			v, err := New(ps, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v.valBits != band.valBits || !oneWord(ps) {
				t.Errorf("%s: valBits=%d, want %d", name, v.valBits, band.valBits)
			}
			if res, err := v.Run(); err != nil || res.Schedulable {
				t.Errorf("%s: %+v, %v; want a verdict of a miss", name, res, err)
			}
			full := cstate{occ: -1}
			for i := 0; i < fit; i++ {
				full.phase[i], full.val[i] = pCooldown, uint8(r-1)
			}
			checkRoundTrip(t, v, &full)

			limit := "the one-word limit of 64"
			if fit == maxApps {
				limit = fmt.Sprintf("(max %d)", maxApps)
			}
			over := fleet(fit+1, 0, 1, 2, r)
			if _, err := New(over, cfg); !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), limit) || oneWord(over) {
				t.Errorf("n=%d r=%d: %v, want ErrEncoding naming %q", fit+1, r, err, limit)
			}
			if _, err := New(fleet(maxApps+1, 0, 1, 2, r), cfg); !errors.Is(err, ErrEncoding) {
				t.Errorf("n=%d r=%d: want ErrEncoding, got %v", maxApps+1, r, err)
			}
		}
	}
}

// FuzzPackRoundTrip draws an application set — 1 to maxApps applications,
// each with its own r and T*w — and one storable state of it (lane clocks
// within [0, r), at most one occupant). New must refuse the set with
// ErrEncoding exactly when it does not fit one word, and otherwise the
// state must pass checkRoundTrip. data is read four bytes per application
// (r, T*w, phase, clock), then occupant and dwell; missing bytes read as
// zero. The seed corpus in testdata/fuzz/FuzzPackRoundTrip holds fleets
// either side of 64 bits, the full twelve applications at r = 127, and
// r = 2ᵏ and 2ᵏ+1 mixed in one set, as n−1, a byte the target ignores, and
// (r−1, T*w, phase, clock) per application. The ignored byte is where the
// removed disturbance bound was read, so the committed seeds keep their
// meaning.
func FuzzPackRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, _ uint8, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		ps := make([]*switching.Profile, 1+int(n)%maxApps)
		for i := range ps {
			r := 1 + at(4*i)%maxClock
			ps[i] = prof(fmt.Sprintf("F%d", i), at(4*i+1)%r, 1, 2, r)
		}
		v, err := New(ps, Config{})
		if !oneWord(ps) {
			if !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), "one-word limit") {
				t.Fatalf("a set past the one word: %v, want ErrEncoding naming the limit", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("a set inside every limit was refused: %v", err)
		}
		c := drawState(ps, at)
		checkRoundTrip(t, v, &c)
	})
}

// drawState reads one storable state of the set from at: per application the
// bytes 4i+2 (phase) and 4i+3 (clock, within [0, r)), then occupant and
// dwell — at most one occupant, whose lane is the only Granted one.
func drawState(ps []*switching.Profile, at func(int) int) cstate {
	c := cstate{occ: int8(at(4*len(ps))%(len(ps)+1)) - 1}
	for i, p := range ps {
		c.phase[i] = [...]uint8{pSteady, pWaiting, pCooldown}[at(4*i+2)%3]
		if int(c.occ) == i {
			c.phase[i], c.cT = pGranted, uint8(at(4*len(ps)+1)%(maxTdw+1))
		}
		if c.phase[i] != pSteady {
			c.val[i] = uint8(at(4*i+3) % p.R)
		}
	}
	return c
}

// TestWideSevenAppSlot is the first verification past the paper's scale: a
// fleet of seven identical applications that is schedulable exactly at the
// round-robin boundary (T*w = 6 tolerates the six other dwells), checked
// with the symmetry quotient sequentially and in parallel. At r = 10 the
// fitted lanes take 7·6+8 = 50 bits; the name is kept for the test
// history.
func TestWideSevenAppSlot(t *testing.T) {
	ps := fleet(7, 6, 1, 2, 10)
	cfg := Config{NondetTies: true, SymmetryReduction: true, Workers: 1}
	seq, err := Slot(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Schedulable {
		t.Fatalf("7-app round-robin fleet unschedulable: violator %d", seq.Violator)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := Slot(ps, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Schedulable != seq.Schedulable || par.States != seq.States ||
			par.Transitions != seq.Transitions || par.Depth != seq.Depth {
			t.Errorf("workers=%d: (%v,%d,%d,%d), sequential (%v,%d,%d,%d)", workers,
				par.Schedulable, par.States, par.Transitions, par.Depth,
				seq.Schedulable, seq.States, seq.Transitions, seq.Depth)
		}
	}
	// One more identical app breaks the boundary: eight waiters cannot all
	// be served within T*w = 6.
	over, err := Slot(fleet(8, 6, 1, 2, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if over.Schedulable {
		t.Fatal("8-app fleet reported schedulable at the 7-app boundary")
	}
}

// TestSymmetryReductionSound cross-checks the quotient against the full
// state space on sets small enough to explore both ways: the verdict must
// match, and the quotient must never visit more states.
func TestSymmetryReductionSound(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
	}{
		{"pairTight", fleet(2, 0, 3, 5, 20)},
		{"pairLoose", fleet(2, 8, 2, 4, 40)},
		{"tripleMid", fleet(3, 3, 2, 3, 10)},
		{"quadLoose", fleet(4, 6, 1, 2, 10)},
		{"mixed", append(fleet(3, 6, 1, 2, 10), prof("X", 4, 2, 3, 12))},
	}
	for _, tc := range cases {
		full, err := Slot(tc.ps, Config{NondetTies: true})
		if err != nil {
			t.Fatalf("%s: full: %v", tc.name, err)
		}
		quot, err := Slot(tc.ps, Config{NondetTies: true, SymmetryReduction: true})
		if err != nil {
			t.Fatalf("%s: quotient: %v", tc.name, err)
		}
		if quot.Schedulable != full.Schedulable {
			t.Errorf("%s: quotient=%v full=%v", tc.name, quot.Schedulable, full.Schedulable)
		}
		if quot.States > full.States {
			t.Errorf("%s: quotient states %d exceed full %d", tc.name, quot.States, full.States)
		}
	}
}
