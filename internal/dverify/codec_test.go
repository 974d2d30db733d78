package dverify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// expanderFor builds a real expander: three applications with 7-bit lanes
// (phase, then a 5-bit clock), T*w = 5 and r = 20, the occupant nibble at
// bit 21.
func expanderFor(t testing.TB) *verify.Expander {
	t.Helper()
	exp, err := verify.NewExpander(fleet(3, 5, 2, 4, 20), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// randStates returns n distinct states reachable in exp's set, in a
// reproducible random order, each one CheckWords accepts.
func randStates(t testing.TB, rng *rand.Rand, exp *verify.Expander, n int) []uint64 {
	t.Helper()
	init := exp.Initial()
	all := []uint64{uint64(init)}
	seen := map[verify.PackedState]bool{init: true}
	scr := exp.NewScratch()
	for lo := 0; len(all) < n && lo < len(all); {
		hi := len(all)
		for _, s := range all[lo:hi] {
			succ, _ := exp.SuccessorsHashedInto(verify.PackedState(s), scr, nil)
			for _, p := range succ {
				if !seen[p.S] {
					seen[p.S] = true
					all = append(all, uint64(p.S))
				}
			}
		}
		lo = hi
	}
	if len(all) < n {
		t.Fatalf("the fixture reaches %d states, fewer than %d", len(all), n)
	}
	out := make([]uint64, 0, n)
	for _, i := range rng.Perm(len(all))[:n] {
		out = append(out, all[i])
	}
	return out
}

// TestFrontierCodecRoundTrip drives encode→decode across batch sizes: a
// batch is the states' words little-endian in the order given — no header,
// protoVersion names the format — and decodes to exactly those states. A
// zero-length batch holds none.
func TestFrontierCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	exp := expanderFor(t)
	if dec, err := exp.DecodeWords(nil, nil); err != nil || len(dec) != 0 {
		t.Fatalf("empty batch decoded to %v, %v", dec, err)
	}
	for _, n := range []int{1, 2, 33, 4096} {
		states := randStates(t, rng, exp, n)
		enc := exp.AppendWords(nil, states)
		var want []byte
		for _, w := range states {
			want = binary.LittleEndian.AppendUint64(want, w)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("n=%d: batch is not the raw words", n)
		}
		dec, err := exp.DecodeWords(enc, nil)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !slices.Equal(dec, states) {
			t.Fatalf("n=%d: round trip mismatch (%d words back, want %d)", n, len(dec), len(states))
		}
	}
}

// TestFrontierCodecDuplicatesSurvive: the format is not a deduplicator —
// duplicate states (owners dedup on absorb) must round-trip, in order.
func TestFrontierCodecDuplicatesSurvive(t *testing.T) {
	exp := expanderFor(t)
	two := randStates(t, rand.New(rand.NewSource(5)), exp, 2)
	states := []uint64{two[1], two[0], two[1], two[0], two[1]}
	dec, err := exp.DecodeWords(exp.AppendWords(nil, states), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, states) {
		t.Fatalf("duplicates lost: %v", dec)
	}
}

// TestFrontierCodecRawFallback pins the fixed-width format every batch
// uses: a batch hand-built as little-endian words decodes to exactly those
// states, in order, and a one-state batch whose word has its top bit set
// goes out as its 8 bytes and round-trips.
func TestFrontierCodecRawFallback(t *testing.T) {
	exp := expanderFor(t)
	states := randStates(t, rand.New(rand.NewSource(3)), exp, 9)

	// Hand-encode the fixed-width format.
	var hand []byte
	for _, w := range states {
		hand = binary.LittleEndian.AppendUint64(hand, w)
	}
	dec, err := exp.DecodeWords(hand, nil)
	if err != nil {
		t.Fatalf("hand-built batch decode: %v", err)
	}
	if !slices.Equal(dec, states) {
		t.Fatal("hand-built batch decoded wrong")
	}

	// Seven applications at r = 64 fill the one word, and an occupant nine
	// samples into a dwell of up to 12 sets its top bit.
	exp, err = verify.NewExpander(fleet(7, 6, 10, 12, 64), verify.Config{NondetTies: true})
	if err != nil {
		t.Fatalf("full-word fixture: %v", err)
	}
	one := []uint64{9<<60 | 3<<2 | 2} // occupant 0, Granted after a wait of 3, dwell 9
	enc := exp.AppendWords(nil, one)
	if len(enc) != 8 {
		t.Fatalf("top-bit batch took %d bytes, want its 8", len(enc))
	}
	dec, err = exp.DecodeWords(enc, nil)
	if err != nil || !slices.Equal(dec, one) {
		t.Fatalf("raw round trip: %v %v", dec, err)
	}
}

// TestFrontierCodecErrors: a batch off the 8-byte state stride fails
// loudly, never silently, and decodes no state.
func TestFrontierCodecErrors(t *testing.T) {
	exp := expanderFor(t)
	for _, batch := range [][]byte{{1, 2, 3}, make([]byte, 17)} {
		dec, err := exp.DecodeWords(batch, nil)
		if err == nil || !strings.Contains(err.Error(), "not a multiple of the 8-byte state") || len(dec) != 0 {
			t.Fatalf("%d-byte batch: %d states, err = %v", len(batch), len(dec), err)
		}
	}
}

// TestDecodeRefusesZeroState: no encoding produces the all-zero state — it
// is the visited sets' empty-slot sentinel, and inserting it panics — so a
// frontier batch that carries one is refused by name before absorb sees
// it.
func TestDecodeRefusesZeroState(t *testing.T) {
	exp := expanderFor(t)
	zero, one := make([]byte, 8), make([]byte, 8)
	one[0] = 1
	for _, tc := range []struct {
		name  string
		batch []byte
	}{
		{"raw", zero},
		{"raw after a state", append(one, zero...)},
	} {
		if _, err := exp.DecodeWords(tc.batch, nil); err == nil || !strings.Contains(err.Error(), "all-zero state") {
			t.Errorf("%s batch %v: err = %v, want the all-zero-state error", tc.name, tc.batch, err)
		}
	}
}

// outOfLayout are the nonzero states no search of expanderFor's set
// produces, each of which the kernel would panic on, carry a clock out of,
// or the visited sets would store: an occupant index past the n
// applications, a bit outside the lanes and the header, an occupant whose
// lane records a wait beyond its T*w, a Cooldown clock past r − 1 and a
// Waiting clock at T*w.
var outOfLayout = []struct {
	name, want string
	state      uint64
}{
	{"occupant index", "none of the 3 applications", 5 << 21},
	{"bit outside the layout", "outside its lanes and header", 0xF<<21 | 1<<40},
	{"occupant past T*w", "beyond its T*w of 5", 6<<2 | 2},
	{"cooldown clock past r − 1", "F1 in cooldown at clock 20, past its r − 1 of 19", 0xF<<21 | (20<<2|3)<<7},
	{"waiting clock at T*w", "F0 waiting at clock 5, not below its T*w of 5", 0xF<<21 | 5<<2 | 1},
}

// TestDecodeRefusesOutOfLayoutState: a batch holding a nonzero state
// outside the set's layout is refused by name before the kernel or absorb
// sees it.
func TestDecodeRefusesOutOfLayoutState(t *testing.T) {
	exp := expanderFor(t)
	if init := exp.Initial(); init != 0xF<<21 {
		t.Fatalf("fixture moved: initial state %#x", init)
	}
	for _, tc := range outOfLayout {
		raw := exp.AppendWords(nil, []uint64{tc.state})
		if _, err := exp.DecodeWords(raw, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("batch with %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzFrontierDecode feeds DecodeWords arbitrary bytes, as a mesh link
// might: the outcome is a named error, or states that AppendWords puts back
// byte for byte — never a panic and never a state CheckWords refuses (the
// all-zero state is the visited sets' sentinel: absorb would panic on it; an
// out-of-layout occupant panics the kernel). The seed corpus in
// testdata/fuzz/FuzzFrontierDecode holds an empty batch, a raw batch, a
// raw batch off the state stride, and a raw batch holding each state of
// outOfLayout.
func FuzzFrontierDecode(f *testing.F) {
	exp := expanderFor(f)
	f.Fuzz(func(t *testing.T, batch []byte) {
		dec, err := exp.DecodeWords(batch, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dverify: ") && !strings.HasPrefix(err.Error(), "verify: ") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if i := badState(exp, dec); i >= 0 {
			t.Fatalf("state %d of the decoded batch fails CheckWords", i)
		}
		if again := exp.AppendWords(nil, dec); !bytes.Equal(again, batch) {
			t.Fatalf("%d words re-encode to %d bytes, decoded from %d", len(dec), len(again), len(batch))
		}
	})
}

// badState returns the index of the first state of a slab CheckWords
// refuses, or −1.
func badState(exp *verify.Expander, states []uint64) int {
	for i := range states {
		if exp.CheckWords(states[i:i+1]) != nil {
			return i
		}
	}
	return -1
}

// TestProtocolVersionHandshake: both mismatch directions must fail loudly
// before any frontier moves — a coordinator rejects a node echoing another
// protocol version, and a node rejects a job carrying one. The stale peers
// are a PR-3 binary (no Proto field: presents as 0 either way), a
// version-6 one, which packs states with fixed 7-bit clocks and would decode
// a fitted-layout frontier into different states without any error, a
// version-7 one, whose request kinds are numbered differently, a version-8
// one, whose Job still asks for a per-node lane pool, a version-9 one,
// which may send DEFLATE batches, a version-11 one, which sends sorted
// varint-delta batches, a version-12 one, whose Job carries no lane count
// (its nodes would each run one lane whatever Workers said), and a
// version-13 one, whose Job carries FT, Era and Cut and whose link reports
// carry no cause, a version-15 one, which ships a wide state as four
// words, a version-16 one, whose Recover order names a checkpoint cut to
// roll back to, a version-17 one, which ships a wide state as three words
// and whose ViolState is three words, and a version-18 one, whose Job
// carries an ownership table, whose polls may order an in-session
// recovery and whose frames carry an era, and a version-19 one, whose
// answers restate their totals and whose batches open with a codec byte.
func TestProtocolVersionHandshake(t *testing.T) {
	ps := []*switching.Profile{prof("A", 5, 2, 4, 20)}
	for _, stale := range []int{0, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19} {
		named := fmt.Sprintf("protocol %d", stale)
		job := Job{Proto: stale, Profiles: []switching.Profile{*ps[0]}, NumNodes: 1}
		if _, _, err := newMeshWorker(&job, nil, nil); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("worker accepted a %s job (err=%v)", named, err)
		}

		// A stale worker answers Init with its own version; the coordinator
		// must stop there.
		worker, kinds := cannedWorker(t, Response{Proto: stale}, 0)
		_, err := Runner([]Transport{worker})(ps, verify.Config{NondetTies: true})
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("coordinator accepted a %s worker (err=%v)", named, err)
		}
		if got := kinds(); !slices.Equal(got, []Kind{KindInit}) {
			t.Fatalf("coordinator sent %v to a %s worker, want Init only", got, named)
		}
	}
}

// TestPlacementRefused: a node's shards follow from its placement, so a
// worker refuses a job whose NodeID is not one of its NumNodes nodes
// rather than route a state to no node.
func TestPlacementRefused(t *testing.T) {
	ps := fleet(2, 5, 2, 4, 20)
	for _, p := range [][2]int{{0, 0}, {-1, 2}, {2, 2}} {
		job := &Job{Proto: protoVersion, NodeID: p[0], NumNodes: p[1], Profiles: []switching.Profile{*ps[0], *ps[1]}}
		want := fmt.Sprintf("node %d of %d is not a valid placement", p[0], p[1])
		if _, _, err := newMeshWorker(job, nil, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("node %d of %d: err = %v", p[0], p[1], err)
		}
	}
}
