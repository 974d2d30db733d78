package verify

import (
	"errors"
	"fmt"
	"testing"

	"tightcps/internal/switching"
)

// fleet builds n identical synthetic profiles (distinct names), the
// symmetric workload the wide encoding and the symmetry quotient target.
func fleet(n, twStar, dm, dp, r int) []*switching.Profile {
	out := make([]*switching.Profile, n)
	for i := range out {
		out[i] = prof(fmt.Sprintf("F%d", i), twStar, dm, dp, r)
	}
	return out
}

// checkRoundTrip holds c to the layout contract: both packed encodings
// decode back to c — so they agree with each other — and neither produces
// the all-zero empty-slot sentinel. The one-word encoding is checked only
// when the set fits it.
func checkRoundTrip(t testing.TB, v *Verifier, c *cstate) {
	t.Helper()
	var d cstate
	w := v.packWide(c)
	if v.unpackWide(w, &d); w == ([wideWords]uint64{}) || d != *c {
		t.Fatalf("wide round trip (valBits %d): %+v → %x → %+v", v.valBits, *c, w, d)
	}
	if v.wide {
		return
	}
	s := v.pack(c)
	if v.unpack(s, &d); s == 0 || d != *c {
		t.Fatalf("one-word round trip (valBits %d): %+v → %#x → %+v", v.valBits, *c, s, d)
	}
}

// TestEncodingBoundary walks the fitted layout across the one-word limit:
// a set is wide exactly when n·(2 + ⌈log₂ max r⌉ (+2 bounded)) + 8 > 64, the
// clock field is bits.Len(r − 1) wide on both sides of every power of two,
// every count up to maxApps constructs without ErrEncoding and the first
// count beyond it still fails cleanly. On every row the fullest state the
// set can store — all lanes cooling down at r − 1, counters at the bound —
// round-trips through both encodings.
func TestEncodingBoundary(t *testing.T) {
	type row struct {
		n, r, bound int
		valBits     uint
		wide        bool
	}
	rows := []row{
		{7, 20, 0, 5, false},  // 7·7+8 = 57
		{8, 32, 0, 5, false},  // 8·7+8 = 64, exactly one word
		{8, 33, 0, 6, true},   // 8·8+8 = 72
		{7, 64, 0, 6, false},  // 7·8+8 = 64
		{7, 65, 0, 7, true},   // 7·9+8 = 71
		{9, 17, 0, 5, true},   // 9·7+8 = 71
		{6, 127, 0, 7, false}, // 6·9+8 = 62: six apps fit at any r
		{6, 20, 2, 5, false},  // bounded: 6·(2+5+2)+8 = 62
		{6, 33, 2, 6, true},   // bounded: 6·10+8 = 68
		{12, 4, 0, 2, false},  // 12·4+8 = 56: a full-cap fleet on one word
		{12, 20, 0, 5, true},
		{1, 1, 0, 0, false}, // r = 1: a lane is its two phase bits
	}
	for k := uint(1); k < 7; k++ { // r = 2ᵏ and 2ᵏ+1
		rows = append(rows, row{4, 1 << k, 0, k, false}, row{4, 1<<k + 1, 0, k + 1, false})
	}
	for _, tc := range rows {
		name := fmt.Sprintf("n=%d r=%d bound=%d", tc.n, tc.r, tc.bound)
		v, err := New(fleet(tc.n, min(5, tc.r-1), 2, 4, tc.r), Config{NondetTies: true, MaxDisturbances: tc.bound})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.valBits != tc.valBits || v.wide != tc.wide {
			t.Errorf("%s: valBits=%d wide=%v, want %d, %v", name, v.valBits, v.wide, tc.valBits, tc.wide)
		}
		full := cstate{occ: -1}
		for i := 0; i < tc.n; i++ {
			full.phase[i], full.val[i], full.cnt[i] = pCooldown, uint8(tc.r-1), uint8(tc.bound)
		}
		checkRoundTrip(t, v, &full)
	}
	if _, err := New(fleet(maxApps+1, 5, 2, 4, 20), Config{NondetTies: true}); !errors.Is(err, ErrEncoding) {
		t.Errorf("n=%d: want ErrEncoding, got %v", maxApps+1, err)
	}
}

// FuzzPackRoundTrip draws an application set — 1 to maxApps applications,
// each with its own r and T*w, exact or bounded — and one storable state of
// it (lane clocks within [0, r), counters within the bound, at most one
// occupant) and holds both packed encodings to checkRoundTrip. data is read
// four bytes per application (r, T*w, phase and counter, clock), then
// occupant and dwell; missing bytes read as zero. The seed corpus in
// testdata/fuzz/FuzzPackRoundTrip holds the rows of TestEncodingBoundary —
// fleets either side of 64 bits, r = 2ᵏ and 2ᵏ+1 mixed in one set — as n−1,
// the bound and (r−1, T*w, phase, clock) per application.
func FuzzPackRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, bound uint8, data []byte) {
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
		v, err := New(ps, Config{MaxDisturbances: int(bound) % (1 << cntBits)})
		if err != nil {
			t.Fatalf("a set inside every limit was refused: %v", err)
		}
		c := drawState(v, ps, at)
		checkRoundTrip(t, v, &c)
	})
}

// drawState reads one storable state of the set from at: per application the
// bytes 4i+2 (phase and counter) and 4i+3 (clock, within [0, r)), then
// occupant and dwell — counters within the bound, at most one occupant, whose
// lane is the only Granted one.
func drawState(v *Verifier, ps []*switching.Profile, at func(int) int) cstate {
	c := cstate{occ: int8(at(4*len(ps))%(len(ps)+1)) - 1}
	for i, p := range ps {
		c.phase[i] = [...]uint8{pSteady, pWaiting, pCooldown}[at(4*i+2)%3]
		if int(c.occ) == i {
			c.phase[i], c.cT = pGranted, uint8(at(4*len(ps)+1)%(maxTdw+1))
		}
		if c.phase[i] != pSteady {
			c.val[i] = uint8(at(4*i+3) % p.R)
		}
		c.cnt[i] = uint8(at(4*i+2) / 3 % (v.cfg.MaxDisturbances + 1))
	}
	return c
}

// TestWidePackUnpackRoundTrip exercises the multi-word lane layout at the
// full 12-app width, bounded mode (r = 20: 9-bit lanes, 7 per word).
func TestWidePackUnpackRoundTrip(t *testing.T) {
	v, err := New(fleet(12, 5, 2, 4, 20), Config{MaxDisturbances: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := []cstate{
		{occ: -1},
		{phase: [maxApps]uint8{pWaiting, pSteady, pCooldown, pGranted, pWaiting, pCooldown, pSteady, pWaiting, pCooldown, pWaiting, pSteady, pCooldown},
			val: [maxApps]uint8{3, 0, 17, 5, 1, 9, 0, 4, 12, 2, 0, 19},
			cnt: [maxApps]uint8{1, 0, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1}, occ: 3, cT: 2},
		{phase: [maxApps]uint8{pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown, pCooldown},
			val: [maxApps]uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, occ: -1},
	}
	for i := range states {
		checkRoundTrip(t, v, &states[i])
	}
	if !v.wide || v.lanes != 7 {
		t.Fatalf("wide=%v with %d lanes per word, want the wide layout at 7", v.wide, v.lanes)
	}
}

// TestNarrowWideAgree forces sets that fit one word through the multi-word
// path and cross-checks verdicts AND search statistics against the narrow
// fast path — the two encodings must describe the same state graph. The
// fleets of seven and nine ran wide before the clock field was fitted to r
// (W7 and F9 are the pipeline benchmark's); the fit must not have changed
// what they explore. Exhaustive counts are compared on schedulable sets and
// on any sequential run, whose violator is the first met in an
// encoding-independent order; the lanes' minimum-state violator is
// encoding-specific, so only its depth and States are.
func TestNarrowWideAgree(t *testing.T) {
	both := []int{1, 4}
	cases := []struct {
		name    string
		ps      []*switching.Profile
		sym     bool
		workers []int
	}{
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}, false, both},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, false, both},
		{"loosePair", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}, false, both},
		{"tightPair", []*switching.Profile{prof("A", 3, 4, 6, 30), prof("B", 3, 4, 6, 30)}, false, both},
		{"asymTriple", []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}, false, both},
		{"fleet7/sym", fleet(7, 6, 1, 2, 10), true, both},
		{"W7", fleet(7, 5, 1, 2, 8), false, []int{1}}, // 1.8 M states: the sequential pin only
		{"F9/sym", fleet(9, 8, 1, 2, 9), true, both},
	}
	for _, tc := range cases {
		for _, workers := range tc.workers {
			cfg := Config{NondetTies: true, SymmetryReduction: tc.sym, Workers: workers}
			narrow, err := Slot(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: narrow: %v", tc.name, err)
			}
			v, err := New(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if v.wide {
				t.Fatalf("%s: expected a narrow set", tc.name)
			}
			v.wide = true // force the multi-word path
			wide, err := v.Run()
			if err != nil {
				t.Fatalf("%s: wide: %v", tc.name, err)
			}
			if !narrow.Schedulable && workers > 1 {
				narrow.Transitions, narrow.Violator = wide.Transitions, wide.Violator
			}
			if wide.Schedulable != narrow.Schedulable || wide.States != narrow.States ||
				wide.Transitions != narrow.Transitions || wide.Depth != narrow.Depth || wide.Violator != narrow.Violator {
				t.Errorf("%s workers=%d:\n wide   %+v\n narrow %+v", tc.name, workers, wide, narrow)
			}
		}
	}
}

// TestWideSevenAppSlot is the first verification past the paper's scale: a
// fleet of seven identical applications that is schedulable exactly at the
// round-robin boundary (T*w = 6 tolerates the six other dwells), checked
// with the symmetry quotient sequentially and in parallel. At r = 10 the
// fitted lanes put it on one word (7·6+8 = 50 bits); the name is kept for
// the test history.
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

// TestWideParallelMatchesSequential covers the n > 6 verdict-equivalence
// requirement, with and without the symmetry quotient: the parallel search
// must return the sequential verdict, and identical counts on
// exhaustively-searched (schedulable) sets. The fleets with r ≤ 12 fit one
// word since the clock field follows r; the rows marked wide are wide by
// their own n and r, violating and schedulable.
func TestWideParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		ps   []*switching.Profile
		sym  bool
		md   int // MaxDisturbances
		wide bool
	}{
		{"overload7", fleet(7, 2, 1, 2, 5), false, 0, false},
		{"overload7/r65", fleet(7, 2, 1, 2, 65), false, 0, true}, // 7·9+8 = 71
		{"overload12", fleet(12, 1, 1, 2, 6), false, 0, true},    // 12·5+8 = 68
		{"fleet7", fleet(7, 6, 1, 2, 10), true, 0, false},
		{"fleet9", fleet(9, 8, 1, 2, 9), true, 0, false},
		{"mixed7", append(fleet(6, 7, 1, 2, 8), prof("X", 4, 2, 3, 12)), true, 0, false},
		{"mixed6/bounded", wideMixed6(), true, 1, true}, // 6·10+8 = 68
	}
	for _, tc := range cases {
		cfg := Config{NondetTies: true, SymmetryReduction: tc.sym, MaxDisturbances: tc.md, Workers: 1}
		if v, err := New(tc.ps, cfg); err != nil || v.wide != tc.wide {
			t.Fatalf("%s: wide=%v, %v", tc.name, v != nil && v.wide, err)
		}
		seq, err := Slot(tc.ps, cfg)
		if err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		var par [2]Result
		for wi, workers := range []int{2, 8} {
			cfg.Workers = workers
			p, err := Slot(tc.ps, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, workers, err)
			}
			par[wi] = p
			if p.Schedulable != seq.Schedulable {
				t.Errorf("%s: workers=%d schedulable=%v, sequential=%v",
					tc.name, workers, p.Schedulable, seq.Schedulable)
			}
			if seq.Schedulable {
				if p.States != seq.States || p.Transitions != seq.Transitions || p.Depth != seq.Depth {
					t.Errorf("%s: workers=%d counts (%d,%d,%d), sequential (%d,%d,%d)",
						tc.name, workers, p.States, p.Transitions, p.Depth,
						seq.States, seq.Transitions, seq.Depth)
				}
			}
		}
		if !seq.Schedulable && par[0].Violator != par[1].Violator {
			t.Errorf("%s: violator differs across worker counts: %d vs %d",
				tc.name, par[0].Violator, par[1].Violator)
		}
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

// TestWideTraceReplaysInArbiter: a counterexample rebuilt for a violation
// found on the wide path, by the sequential search or by two and three lanes,
// must replay to the violator's deadline miss in the runtime arbiter, exactly
// like the narrow path's schedules.
func TestWideTraceReplaysInArbiter(t *testing.T) {
	ps := fleet(7, 2, 1, 2, 65)
	for _, workers := range []int{1, 2, 3} {
		v, err := New(ps, Config{Workers: workers}) // deterministic ties, like the arbiter
		if err != nil || !v.wide {
			t.Fatalf("seven apps at r = 65 must be wide: %v", err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			t.Fatalf("workers=%d: expected a violation", workers)
		}
		schedule, err := Counterexample(ps, Config{Workers: workers}, res)
		if err != nil || len(schedule) != res.Depth {
			t.Fatalf("workers=%d: %d-step schedule (%v) for a miss at depth %d", workers, len(schedule), err, res.Depth)
		}
		if !replayMisses(t, ps, schedule, res.Violator) {
			t.Errorf("workers=%d: wide-path violation of %s did not reproduce in the arbiter", workers, ps[res.Violator].Name)
		}
	}
}
