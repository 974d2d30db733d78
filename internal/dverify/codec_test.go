package dverify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// expanderFor builds a real expander with the given state width: 1 word
// (narrow triple) or 3 words (seven apps at r = 65 — 9-bit lanes; at r ≤ 64
// a seven-app fleet fits one word).
func expanderFor(t testing.TB, words int) *verify.Expander {
	t.Helper()
	ps := fleet(3, 5, 2, 4, 20)
	if words == 3 {
		ps = fleet(7, 6, 1, 2, 65)
	}
	exp, err := verify.NewExpander(ps, verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if exp.StateWords() != words {
		t.Fatalf("fixture yields %d-word states, want %d", exp.StateWords(), words)
	}
	return exp
}

// packed lifts one state's words into a PackedState.
func packed(s []uint64) (p verify.PackedState) {
	copy(p[:], s)
	return p
}

// randStates returns n distinct states reachable in exp's set, flat, in a
// reproducible random order, each one CheckWords accepts.
func randStates(t testing.TB, rng *rand.Rand, exp *verify.Expander, n int) []uint64 {
	t.Helper()
	sw, init := exp.StateWords(), exp.Initial()
	all := append([]uint64(nil), init[:sw]...)
	seen := map[verify.PackedState]bool{init: true}
	scr := exp.NewScratch()
	for lo := 0; len(all) < n*sw && lo < len(all); {
		hi := len(all)
		for i := lo; i < hi; i += sw {
			succ, _ := exp.SuccessorsHashedInto(packed(all[i:i+sw]), scr, nil)
			for _, p := range succ {
				if !seen[p.S] {
					seen[p.S] = true
					all = append(all, p.S[:sw]...)
				}
			}
		}
		lo = hi
	}
	if len(all) < n*sw {
		t.Fatalf("the fixture reaches %d states, fewer than %d", len(all)/sw, n)
	}
	out := make([]uint64, 0, n*sw)
	for _, i := range rng.Perm(len(all) / sw)[:n] {
		out = append(out, all[i*sw:(i+1)*sw]...)
	}
	return out
}

// TestFrontierCodecRoundTrip drives encode→decode across batch sizes and
// both state widths: a batch is the version byte, then the states' words
// little-endian in the order given — byte for byte the body of a checkpoint
// segment holding them — and decodes to exactly those states. A zero-length
// batch holds none.
func TestFrontierCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for _, words := range []int{1, 3} {
		exp := expanderFor(t, words)
		if dec, err := decodeBatch(exp, nil, nil); err != nil || len(dec) != 0 {
			t.Fatalf("words=%d: empty batch decoded to %v, %v", words, dec, err)
		}
		for _, n := range []int{1, 2, 33, 4096} {
			states := randStates(t, rng, exp, n)
			enc := encodeBatch(exp, nil, states)
			want := []byte{codecRaw}
			for _, w := range states {
				want = binary.LittleEndian.AppendUint64(want, w)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("words=%d n=%d: batch is not the version byte and the raw words", words, n)
			}
			path := segPath(dir, words, n)
			if err := writeSegment(path, states, 0, exp); err != nil {
				t.Fatal(err)
			}
			if seg, err := os.ReadFile(path); err != nil || !bytes.Equal(seg[segHeader:], enc[1:]) {
				t.Fatalf("words=%d n=%d: batch body differs from the segment body (%v)", words, n, err)
			}
			dec, err := decodeBatch(exp, enc, nil)
			if err != nil {
				t.Fatalf("words=%d n=%d: decode: %v", words, n, err)
			}
			if !slices.Equal(dec, states) {
				t.Fatalf("words=%d n=%d: round trip mismatch (%d words back, want %d)", words, n, len(dec), len(states))
			}
		}
	}
}

// TestFrontierCodecDuplicatesSurvive: the format is not a deduplicator —
// duplicate states (owners dedup on absorb) must round-trip, in order.
func TestFrontierCodecDuplicatesSurvive(t *testing.T) {
	exp := expanderFor(t, 1)
	two := randStates(t, rand.New(rand.NewSource(5)), exp, 2)
	states := []uint64{two[1], two[0], two[1], two[0], two[1]}
	dec, err := decodeBatch(exp, encodeBatch(exp, nil, states), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, states) {
		t.Fatalf("duplicates lost: %v", dec)
	}
}

// TestFrontierCodecRawFallback pins the fixed-width format every batch now
// uses: a batch hand-built as version byte codecRaw then little-endian words
// decodes to exactly those states, in order, and a one-state batch whose
// word has its top bit set goes out in that format and round-trips.
func TestFrontierCodecRawFallback(t *testing.T) {
	exp := expanderFor(t, 3)
	states := randStates(t, rand.New(rand.NewSource(3)), exp, 9)

	// Hand-encode the fixed-width format.
	legacy := []byte{codecRaw}
	for _, w := range states {
		legacy = binary.LittleEndian.AppendUint64(legacy, w)
	}
	dec, err := decodeBatch(exp, legacy, nil)
	if err != nil {
		t.Fatalf("hand-built batch decode: %v", err)
	}
	if !slices.Equal(dec, states) {
		t.Fatal("hand-built batch decoded wrong")
	}

	// Seven applications at r = 64 fill the one word, and an occupant nine
	// samples into a dwell of up to 12 sets its top bit.
	exp, err = verify.NewExpander(fleet(7, 6, 10, 12, 64), verify.Config{NondetTies: true})
	if err != nil || exp.StateWords() != 1 {
		t.Fatalf("full-word fixture: %v", err)
	}
	one := []uint64{9<<60 | 3<<2 | 2} // occupant 0, Granted after a wait of 3, dwell 9
	enc := encodeBatch(exp, nil, one)
	if enc[0] != codecRaw || len(enc) != 9 {
		t.Fatalf("top-bit batch used version %d in %d bytes, want the 9-byte raw format", enc[0], len(enc))
	}
	dec, err = decodeBatch(exp, enc, nil)
	if err != nil || !slices.Equal(dec, one) {
		t.Fatalf("raw round trip: %v %v", dec, err)
	}
}

// TestFrontierCodecErrors: corrupted batches fail loudly, never silently —
// among them batches opening with byte 1 or 2, the sorted varint-delta and
// DEFLATE formats a protocol-11 or protocol-9 peer could still send.
func TestFrontierCodecErrors(t *testing.T) {
	exp := expanderFor(t, 1)
	if _, err := decodeBatch(exp, []byte{codecRaw, 1, 2, 3}, nil); err == nil {
		t.Fatal("short raw batch decoded")
	}
	if _, err := decodeBatch(exp, []byte{99, 1}, nil); err == nil {
		t.Fatal("unknown codec version decoded")
	}
	for _, old := range []byte{1, 2} {
		want := fmt.Sprintf("unknown frontier codec version %d", old)
		if _, err := decodeBatch(exp, []byte{old, 0xff, 0xff}, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("byte-%d batch: err = %v, want the unknown-version error", old, err)
		}
	}
}

// TestDecodeRefusesZeroState: no encoding produces the all-zero state — it
// is the visited sets' empty-slot sentinel, and inserting it panics — so a
// frontier batch or a checkpoint segment that carries one is refused by
// name, on both widths, before absorb sees it; a worker ordered to restore
// such a segment reports it and stands.
func TestDecodeRefusesZeroState(t *testing.T) {
	dir := t.TempDir()
	for _, words := range []int{1, 3} {
		exp := expanderFor(t, words)
		zero, one := make([]byte, 8*words), make([]byte, 8*words)
		one[0] = 1
		for _, tc := range []struct {
			name  string
			batch []byte
		}{
			{"raw", append([]byte{codecRaw}, zero...)},
			{"raw after a state", append(append([]byte{codecRaw}, one...), zero...)},
		} {
			if _, err := decodeBatch(exp, tc.batch, nil); err == nil || !strings.Contains(err.Error(), "all-zero state") {
				t.Errorf("%d-word %s batch %v: err = %v, want the all-zero-state error", words, tc.name, tc.batch, err)
			}
		}
		path := segPath(dir, words, 0)
		if err := os.WriteFile(path, segmentBytes(2, 0, append(one, zero...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSegment(path, exp); err == nil || !strings.Contains(err.Error(), "all-zero state") ||
			!strings.HasPrefix(err.Error(), "dverify: checkpoint segment "+path+": ") {
			t.Errorf("%d-word segment holding the zero state: err = %v", words, err)
		}
	}

	ts := Loopback(1)
	defer Close(ts)
	job := &Job{Proto: protoVersion, NumNodes: 1, Owners: defaultOwners(1), MaxStates: 100, CheckpointDir: dir, Session: 2}
	for _, p := range fleet(3, 5, 2, 4, 20) {
		job.Profiles = append(job.Profiles, *p)
	}
	w, _, err := newMeshWorker(job, loopEnv{ts[0].(*loopTransport).group}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.shutdown()
	for sh := 0; sh < verify.NumShards; sh++ {
		if err := writeSegment(segPath(w.ckptDir, 0, sh), nil, 0, w.exp); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(segPath(w.ckptDir, 0, 5), segmentBytes(1, 0, make([]byte, 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	w.recoverTo(&Recover{Era: 1, Owners: defaultOwners(1), Cut: 0})
	if w.err == nil || !strings.Contains(w.err.Error(), "all-zero state") {
		t.Fatalf("worker error after restoring a segment holding the zero state: %v", w.err)
	}
}

// outOfLayout are, per state width, the nonzero states no search of
// expanderFor's sets produces, each of which the kernel would panic on,
// carry a clock out of, or the visited sets would store: an occupant index
// past the n applications, a bit outside the lanes and the header, an
// occupant whose lane records a wait beyond its T*w, a Cooldown clock past
// r − 1 and a Waiting clock at T*w. The narrow set has 3 applications with
// 7-bit lanes (phase, then a 5-bit clock), T*w = 5 and r = 20, its occupant
// nibble at bit 21; the wide one 7 applications with 9-bit lanes, T*w = 6
// and r = 65, all in word 0, its occupant in the header word's low byte.
var outOfLayout = map[int][]struct {
	name, want string
	state      []uint64
}{
	1: {
		{"occupant index", "none of the 3 applications", []uint64{5 << 21}},
		{"bit outside the layout", "outside its lanes and header", []uint64{0xF<<21 | 1<<40}},
		{"occupant past T*w", "beyond its T*w of 5", []uint64{6<<2 | 2}},
		{"cooldown clock past r − 1", "F1 in cooldown at clock 20, past its r − 1 of 19", []uint64{0xF<<21 | (20<<2|3)<<7}},
		{"waiting clock at T*w", "F0 waiting at clock 5, not below its T*w of 5", []uint64{0xF<<21 | 5<<2 | 1}},
	},
	3: {
		{"occupant index", "none of the 7 applications", []uint64{0, 0, 7}},
		{"bit outside the layout", "outside its lanes and header", []uint64{0, 1, 0xFF}},
		{"occupant past T*w", "beyond its T*w of 6", []uint64{7<<2 | 2, 0, 0}},
		{"cooldown clock past r − 1", "F2 in cooldown at clock 127, past its r − 1 of 64", []uint64{(127<<2 | 3) << 18, 0, 0xFF}},
		{"waiting clock at T*w", "F6 waiting at clock 6, not below its T*w of 6", []uint64{(6<<2 | 1) << 54, 0, 0xFF}},
	},
}

// TestDecodeRefusesOutOfLayoutState: a batch or a checkpoint segment holding
// a nonzero state outside the set's layout is refused by name, on both
// widths, before the kernel or absorb sees it.
func TestDecodeRefusesOutOfLayoutState(t *testing.T) {
	dir := t.TempDir()
	for words, cases := range outOfLayout {
		exp := expanderFor(t, words)
		if init := exp.Initial(); words == 1 && init[0] != 0xF<<21 || words == 3 && init[2] != 0xFF {
			t.Fatalf("%d-word fixture moved: initial state %v", words, init)
		}
		for _, tc := range cases {
			raw := exp.AppendWords(nil, tc.state)
			if _, err := decodeBatch(exp, append([]byte{codecRaw}, raw...), nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%d-word batch with %s: err = %v, want %q", words, tc.name, err, tc.want)
			}
			path := segPath(dir, words, 0)
			if err := os.WriteFile(path, segmentBytes(1, 0, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := readSegment(path, exp); err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.HasPrefix(err.Error(), "dverify: checkpoint segment "+path+": ") {
				t.Errorf("%d-word segment with %s: err = %v, want %q", words, tc.name, err, tc.want)
			}
		}
	}
}

// FuzzFrontierDecode feeds decodeBatch arbitrary bytes, as a mesh link
// might: the outcome is a named error, or states that encodeBatch puts back
// byte for byte — never a panic and never a state CheckWords refuses (the
// all-zero state is the visited sets' sentinel: absorb would panic on it; an
// out-of-layout occupant panics the kernel). The seed corpus in
// testdata/fuzz/FuzzFrontierDecode holds an empty batch, raw batches of
// both widths, a raw batch off the state stride, byte-1 batches (protocol
// 11's delta format, a truncated varint among them) and a byte-2 one, and,
// on both widths, a raw batch holding each state of outOfLayout.
func FuzzFrontierDecode(f *testing.F) {
	narrow, wide := expanderFor(f, 1), expanderFor(f, 3)
	f.Fuzz(func(t *testing.T, useWide bool, batch []byte) {
		exp := narrow
		if useWide {
			exp = wide
		}
		dec, err := decodeBatch(exp, batch, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dverify: ") && !strings.HasPrefix(err.Error(), "verify: ") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if i := badState(exp, dec); i >= 0 {
			t.Fatalf("state %d of the decoded batch fails CheckWords", i)
		}
		if len(batch) == 0 {
			if len(dec) != 0 {
				t.Fatalf("an empty batch decoded to %d words", len(dec))
			}
			return
		}
		if again := encodeBatch(exp, nil, dec); !bytes.Equal(again, batch) {
			t.Fatalf("%d words re-encode to %d bytes, decoded from %d", len(dec), len(again), len(batch))
		}
	})
}

// badState returns the index of the first state of a slab CheckWords
// refuses, or −1.
func badState(exp *verify.Expander, states []uint64) int {
	sw := exp.StateWords()
	for i := 0; i < len(states); i += sw {
		if exp.CheckWords(states[i:i+sw]) != nil {
			return i / sw
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
// carry no cause, and a version-15 one, which ships a wide state as four
// words.
func TestProtocolVersionHandshake(t *testing.T) {
	ps := []*switching.Profile{prof("A", 5, 2, 4, 20)}
	for _, stale := range []int{0, 6, 7, 8, 9, 11, 12, 13, 14, 15} {
		named := fmt.Sprintf("protocol %d", stale)
		job := Job{Proto: stale, Profiles: []switching.Profile{*ps[0]}, NumNodes: 1}
		if _, _, err := newMeshWorker(&job, nil, nil); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("worker accepted a %s job (err=%v)", named, err)
		}

		// A stale worker answers Init with its own version; the coordinator
		// must stop there.
		worker, kinds := cannedWorker(t, Response{Proto: stale}, 0)
		_, err := Verify(ps, verify.Config{NondetTies: true}, []Transport{worker})
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("coordinator accepted a %s worker (err=%v)", named, err)
		}
		if got := kinds(); !slices.Equal(got, []Kind{KindInit}) {
			t.Fatalf("coordinator sent %v to a %s worker, want Init only", got, named)
		}
	}
}

// TestOwnershipTableRefused: a job always carries its ownership table, so a
// worker refuses one that is missing, short or names a node outside the
// cluster — at Init, and in a Recover order, which leaves the worker in its
// era with the error — rather than routing a state to no node.
func TestOwnershipTableRefused(t *testing.T) {
	bad := map[string][]uint8{
		"missing": nil,
		"short":   defaultOwners(2)[:63],
		"node 2":  append(defaultOwners(2)[:63:63], 2),
	}
	ps := fleet(2, 5, 2, 4, 20)
	for name, owners := range bad {
		job := &Job{Proto: protoVersion, NumNodes: 2, Owners: owners, Profiles: []switching.Profile{*ps[0], *ps[1]}}
		if _, _, err := newMeshWorker(job, nil, nil); err == nil || !strings.Contains(err.Error(), "ownership table") {
			t.Errorf("%s table at Init: err = %v", name, err)
		}
	}
	ts := Loopback(1)
	defer Close(ts)
	job := &Job{Proto: protoVersion, NumNodes: 1, Owners: defaultOwners(1), Profiles: []switching.Profile{*ps[0], *ps[1]}}
	w, _, err := newMeshWorker(job, loopEnv{ts[0].(*loopTransport).group}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.shutdown()
	w.recoverTo(&Recover{Era: 1, Owners: bad["short"], Cut: -1})
	if w.err == nil || !strings.Contains(w.err.Error(), "ownership table") || w.era != 0 {
		t.Fatalf("short table in a Recover order: era %d, err %v", w.era, w.err)
	}
}

// segmentBytes hand-builds a checkpoint segment file: the header claims
// count states and trans transitions, the body is as given.
func segmentBytes(count uint64, trans int64, body []byte) []byte {
	b := append([]byte(nil), segMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, count)
	b = binary.LittleEndian.AppendUint64(b, uint64(trans))
	return append(b, body...)
}

// TestSegmentCorruptHeader: a checkpoint segment whose header disagrees with
// its body — by a count chosen so count × stride wraps to the body's length,
// by one state either way, by a partial trailing state — or whose header is
// cut short or not a segment's is refused with an error naming the file. The
// reader never panics, nor allocates by the claimed count; a worker ordered to
// restore from such a file reports it as its "restoring checkpoint cut" error.
func TestSegmentCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	for _, words := range []int{1, 3} {
		exp := expanderFor(t, words)
		stride := 8 * words
		two := make([]byte, 2*stride)
		two[0], two[stride] = 1, 2
		wrap := uint64(1 << 61) // × stride (8 or 24) = 2⁶⁴ or 3 · 2⁶⁴ ≡ 0
		for _, tc := range []struct {
			name string
			file []byte
			want string // "" = a valid segment
		}{
			{"valid", segmentBytes(2, 7, two), ""},
			{"valid empty", segmentBytes(0, 7, nil), ""},
			{"count wraps to an empty body", segmentBytes(wrap, 0, nil), "header claims"},
			{"count wraps to the body", segmentBytes(wrap+2, 0, two), "header claims"},
			{"count above body", segmentBytes(3, 0, two), "header claims 3 states, body holds 2"},
			{"count below body", segmentBytes(1, 0, two), "header claims 1 states, body holds 2"},
			{"partial trailing state", segmentBytes(2, 0, append(two[:len(two):len(two)], 1, 2, 3)), "state stride"},
			{"short header", segmentBytes(0, 0, nil)[:10], "bad header"},
			{"bad magic", append([]byte("notasegm"), segmentBytes(0, 0, nil)[8:]...), "bad header"},
		} {
			path := segPath(dir, words, 0)
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			states, trans, err := readSegment(path, exp)
			if tc.want == "" {
				if err != nil || len(states)/words != len(tc.file[segHeader:])/stride || trans != 7 {
					t.Errorf("%d-word %s: %d states, %d transitions, %v", words, tc.name, len(states)/words, trans, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.HasPrefix(err.Error(), "dverify: checkpoint segment "+path+": ") {
				t.Errorf("%d-word %s: want a named error with %q, got %v", words, tc.name, tc.want, err)
			}
		}
	}

	// The same file under a worker: recovery reports it, the worker stands.
	ts := Loopback(1)
	defer Close(ts)
	job := &Job{Proto: protoVersion, NumNodes: 1, Owners: defaultOwners(1), MaxStates: 100, CheckpointDir: dir, Session: 1}
	for _, p := range fleet(3, 5, 2, 4, 20) {
		job.Profiles = append(job.Profiles, *p)
	}
	w, _, err := newMeshWorker(job, loopEnv{ts[0].(*loopTransport).group}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.shutdown()
	for sh := 0; sh < verify.NumShards; sh++ {
		if err := writeSegment(segPath(w.ckptDir, 0, sh), nil, 0, w.exp); err != nil {
			t.Fatal(err)
		}
	}
	bad := segPath(w.ckptDir, 0, 5)
	if err := os.WriteFile(bad, segmentBytes(1<<61, 0, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	w.recoverTo(&Recover{Era: 1, Owners: defaultOwners(1), Cut: 0})
	if w.err == nil || !strings.Contains(w.err.Error(), "restoring checkpoint cut 0: dverify: checkpoint segment "+bad) {
		t.Fatalf("worker error after restoring from a corrupt segment: %v", w.err)
	}
}

// FuzzReadSegment: whatever bytes sit where a checkpoint segment should,
// readSegment answers with a named error or with states and a transition
// count that writeSegment puts back byte for byte — it never panics, never
// returns a state CheckWords refuses, and no header field it has not checked
// against the file sizes an allocation. The seed corpus in
// testdata/fuzz/FuzzReadSegment holds an empty file, a bare header, valid
// narrow and wide segments, a count one above the body, a count that wraps
// the size product, trailing bytes and, on both widths, a segment holding
// each state of outOfLayout.
func FuzzReadSegment(f *testing.F) {
	narrow, wide := expanderFor(f, 1), expanderFor(f, 3)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, useWide bool, file []byte) {
		exp := narrow
		if useWide {
			exp = wide
		}
		in, out := segPath(dir, 0, 0), segPath(dir, 0, 1)
		if err := os.WriteFile(in, file, 0o644); err != nil {
			t.Fatal(err)
		}
		states, trans, err := readSegment(in, exp)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dverify: checkpoint segment "+in+": ") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if i := badState(exp, states); i >= 0 {
			t.Fatalf("state %d of the segment fails CheckWords", i)
		}
		if err := writeSegment(out, states, trans, exp); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(out); err != nil || !bytes.Equal(again, file) {
			t.Fatalf("%d words of states, %d transitions written back as %d bytes, read from %d (%v)", len(states), trans, len(again), len(file), err)
		}
	})
}
