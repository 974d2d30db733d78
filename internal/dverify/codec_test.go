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

// codecFor builds a frontierCodec over a real expander with the given
// state width: 1 word (narrow triple) or 4 words (seven apps at r = 65 —
// 9-bit lanes; at r ≤ 64 a seven-app fleet fits one word).
func codecFor(t testing.TB, words int) *frontierCodec {
	t.Helper()
	ps := fleet(3, 5, 2, 4, 20)
	if words == 4 {
		ps = fleet(7, 6, 1, 2, 65)
	}
	exp, err := verify.NewExpander(ps, verify.Config{NondetTies: true})
	if err != nil {
		t.Fatal(err)
	}
	if exp.StateWords() != words {
		t.Fatalf("fixture yields %d-word states, want %d", exp.StateWords(), words)
	}
	return newFrontierCodec(exp)
}

// randStates builds a reproducible batch of n states — flat, words words
// each — shaped like packed verifier states (limited-entropy words) so the
// delta coder sees realistic input. No state is all-zero.
func randStates(rng *rand.Rand, n, words int) []uint64 {
	out := make([]uint64, n*words)
	for i := range out {
		out[i] = rng.Uint64() & 0x0000_0fff_00ff_ffff
		if i%words == 0 {
			out[i] |= 1 // keep clear of the all-zero sentinel
		}
	}
	return out
}

// sortedCopy returns the batch in codec order (the encoder sorts in place,
// so decoded output is compared against this), sorted state by state under
// verify.LessState — not by the codec's own SortWords.
func sortedCopy(states []uint64, words int) []uint64 {
	var cp []verify.PackedState
	for i := 0; i < len(states); i += words {
		cp = append(cp, packed(states[i:i+words]))
	}
	slices.SortFunc(cp, func(a, b verify.PackedState) int {
		if verify.LessState(a, b) {
			return -1
		}
		if verify.LessState(b, a) {
			return 1
		}
		return 0
	})
	out := make([]uint64, 0, len(states))
	for _, s := range cp {
		out = append(out, s[:words]...)
	}
	return out
}

// TestFrontierCodecRoundTrip drives encode→decode across batch sizes and
// both state widths, checking the decoded states are exactly the sorted
// batch and that large batches actually land on a compressed format.
func TestFrontierCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 4} {
		c := codecFor(t, words)
		for _, n := range []int{0, 1, 2, 33, 4096} {
			states := randStates(rng, n, words)
			want := sortedCopy(states, words)
			enc := c.encode(states, nil)
			if n == 0 {
				if len(enc) != 0 {
					t.Fatalf("words=%d: empty batch encoded to %d bytes", words, len(enc))
				}
				continue
			}
			if n >= 4096 {
				if enc[0] == codecRaw {
					t.Fatalf("words=%d n=%d: large batch fell back to the raw format", words, n)
				}
				if raw := 8 * words * n; len(enc) >= raw {
					t.Fatalf("words=%d n=%d: %d encoded bytes not below the %d-byte raw size", words, n, len(enc), raw)
				}
			}
			dec, err := c.decode(enc, nil)
			if err != nil {
				t.Fatalf("words=%d n=%d: decode: %v", words, n, err)
			}
			if !slices.Equal(dec, want) {
				t.Fatalf("words=%d n=%d: round trip mismatch (%d states back, want %d)", words, n, len(dec), len(want))
			}
		}
	}
}

// TestFrontierCodecDuplicatesSurvive: the codec is not a deduplicator —
// duplicate states (the sender filter is lossy by design) must round-trip.
func TestFrontierCodecDuplicatesSurvive(t *testing.T) {
	c := codecFor(t, 1)
	states := []uint64{42, 7, 42, 7, 42}
	dec, err := c.decode(c.encode(states, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{7, 7, 42, 42, 42}
	if !slices.Equal(dec, want) {
		t.Fatalf("duplicates lost: %v", dec)
	}
}

// TestFrontierCodecRawFallback pins the version-byte dispatch: a batch
// hand-built in the legacy fixed-width format (version byte codecRaw)
// decodes identically to the modern formats, and a one-state batch the
// delta coder cannot shrink falls back to it automatically.
func TestFrontierCodecRawFallback(t *testing.T) {
	c := codecFor(t, 4)
	states := randStates(rand.New(rand.NewSource(3)), 9, 4)
	want := sortedCopy(states, 4)

	// Hand-encode the legacy format.
	legacy := []byte{codecRaw}
	for _, w := range want {
		legacy = binary.LittleEndian.AppendUint64(legacy, w)
	}
	dec, err := c.decode(legacy, nil)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if !slices.Equal(dec, want) {
		t.Fatal("legacy batch decoded wrong")
	}

	// A single state whose words sit mid-range (±2^62 deltas take 10-byte
	// varints) costs more as varints than raw words, so the encoder itself
	// must emit the raw fallback.
	one := []uint64{1 << 62, 1 << 62, 1 << 62, 1 << 62}
	enc := c.encode(one, nil)
	if enc[0] != codecRaw {
		t.Fatalf("incompressible batch used version %d, want raw fallback", enc[0])
	}
	dec, err = c.decode(enc, nil)
	if err != nil || !slices.Equal(dec, one) {
		t.Fatalf("raw fallback round trip: %v %v", dec, err)
	}
}

// TestFrontierCodecErrors: corrupted batches fail loudly, never silently —
// among them a batch opening with byte 2, the DEFLATE format a
// protocol-version-9 peer could still send.
func TestFrontierCodecErrors(t *testing.T) {
	c := codecFor(t, 1)
	if _, err := c.decode([]byte{codecRaw, 1, 2, 3}, nil); err == nil {
		t.Fatal("short raw batch decoded")
	}
	if _, err := c.decode([]byte{codecDelta, 0x80}, nil); err == nil {
		t.Fatal("truncated varint decoded")
	}
	if _, err := c.decode([]byte{99, 1}, nil); err == nil {
		t.Fatal("unknown codec version decoded")
	}
	if _, err := c.decode([]byte{2, 0xff, 0xff}, nil); err == nil || !strings.Contains(err.Error(), "unknown frontier codec version 2") {
		t.Fatalf("byte-2 batch: err = %v, want the unknown-version error", err)
	}
}

// TestDecodeRefusesZeroState: no encoding produces the all-zero state — it
// is the visited sets' empty-slot sentinel, and inserting it panics — so a
// frontier batch in either format or a checkpoint segment that carries one is
// refused by name, on both widths, before absorb sees it; a worker ordered to
// restore such a segment reports it and stands.
func TestDecodeRefusesZeroState(t *testing.T) {
	dir := t.TempDir()
	for _, words := range []int{1, 4} {
		c := codecFor(t, words)
		zero, one := make([]byte, 8*words), make([]byte, 8*words)
		one[0] = 1
		up, down := make([]byte, words), make([]byte, words) // word-0 deltas +1 and −1, zigzag coded
		up[0], down[0] = 2, 1
		for _, tc := range []struct {
			name  string
			batch []byte
		}{
			{"raw", append([]byte{codecRaw}, zero...)},
			{"raw after a state", append(append([]byte{codecRaw}, one...), zero...)},
			{"delta", append([]byte{codecDelta}, make([]byte, words)...)},
			{"delta back to zero", append(append([]byte{codecDelta}, up...), down...)},
		} {
			if _, err := c.decode(tc.batch, nil); err == nil || !strings.Contains(err.Error(), "all-zero state") {
				t.Errorf("%d-word %s batch %v: err = %v, want the all-zero-state error", words, tc.name, tc.batch, err)
			}
		}
		path := segPath(dir, words, 0)
		if err := os.WriteFile(path, segmentBytes(2, 0, append(one, zero...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSegment(path, c.exp); err == nil || !strings.Contains(err.Error(), "all-zero state") ||
			!strings.HasPrefix(err.Error(), "dverify: checkpoint segment "+path+": ") {
			t.Errorf("%d-word segment holding the zero state: err = %v", words, err)
		}
	}

	ts := Loopback(1)
	defer Close(ts)
	job := &Job{Proto: protoVersion, NumNodes: 1, MaxStates: 100, FT: true, CheckpointDir: dir, Session: 2}
	for _, p := range fleet(3, 5, 2, 4, 20) {
		job.Profiles = append(job.Profiles, *p)
	}
	w, _, err := newMeshWorker(job, loopEnv{ts[0].(*loopTransport).group}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.shutdown()
	for sh := 0; sh < numShards; sh++ {
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

// FuzzFrontierDecode feeds decode arbitrary bytes, as a mesh link might:
// the outcome is a named error, or states that survive encode → decode as
// the same multiset — never a panic, never an all-zero state (the visited
// sets' sentinel: absorb would panic on it), and never more states than the
// batch has bytes to pay for (a state costs at least one byte per word in
// either format, so no length the decoder has not read sizes an allocation). The
// seed corpus in testdata/fuzz/FuzzFrontierDecode holds an empty batch, raw
// and delta batches of both widths, a truncated varint, a raw batch off the
// state stride and a byte-2 batch.
func FuzzFrontierDecode(f *testing.F) {
	narrow, wide := codecFor(f, 1), codecFor(f, 4)
	f.Fuzz(func(t *testing.T, useWide bool, batch []byte) {
		c := narrow
		if useWide {
			c = wide
		}
		dec, err := c.decode(batch, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dverify: ") && !strings.HasPrefix(err.Error(), "verify: ") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if len(dec) > len(batch) {
			t.Fatalf("%d states of %d words out of a %d-byte batch", len(dec)/c.words, c.words, len(batch))
		}
		if i := zeroState(dec, c.words); i >= 0 {
			t.Fatalf("state %d of the decoded batch is all zero", i)
		}
		want := sortedCopy(dec, c.words)
		again, err := c.decode(c.encode(dec, nil), nil)
		if err != nil {
			t.Fatalf("re-encoded batch refused: %v", err)
		}
		if !slices.Equal(again, want) {
			t.Fatalf("re-encoded batch decodes to %d words, want the same %d", len(again), len(want))
		}
	})
}

// zeroState returns the index of the first all-zero state of a slab, or −1.
func zeroState(states []uint64, words int) int {
	for i := 0; i < len(states); i += words {
		if packed(states[i:i+words]) == (verify.PackedState{}) {
			return i / words
		}
	}
	return -1
}

// TestSendFilterExactness: a sendFilter hit must imply the exact state was
// inserted before — hash-colliding states may never suppress each other —
// and re-insertion keeps a state resident (recency).
func TestSendFilterExactness(t *testing.T) {
	f := newSendFilter(1)
	a := []uint64{1}
	h := uint64(0xdeadbeef) << 20 // arbitrary; same index for all probes below
	if f.seen(a, h) {
		t.Fatal("fresh state reported seen")
	}
	if !f.seen(a, h) {
		t.Fatal("repeat not recognised")
	}
	b := []uint64{2}
	if f.seen(b, h) {
		t.Fatal("index-colliding distinct state reported seen")
	}
	// Both now resident in the 2-way set.
	if !f.seen(a, h) || !f.seen(b, h) {
		t.Fatal("2-way residency lost")
	}
	cst := []uint64{3}
	if f.seen(cst, h) {
		t.Fatal("third distinct state reported seen")
	}
	// cst evicted a's older slot; a miss on a re-send is safe by design.
	if !f.seen(b, h) || !f.seen(cst, h) {
		t.Fatal("recency order broken")
	}
}

// TestProtocolVersionHandshake: both mismatch directions must fail loudly
// before any frontier moves — a coordinator rejects a node echoing another
// protocol version, and a node rejects a job carrying one. The stale peers
// are a PR-3 binary (no Proto field: presents as 0 either way), a
// version-6 one, which packs states with fixed 7-bit clocks and would decode
// a fitted-layout frontier into different states without any error, a
// version-7 one, whose request kinds are numbered differently, a version-8
// one, whose Job still asks for a per-node lane pool, and a version-9 one,
// which may send DEFLATE batches.
func TestProtocolVersionHandshake(t *testing.T) {
	ps := []*switching.Profile{prof("A", 5, 2, 4, 20)}
	for _, stale := range []int{0, 6, 7, 8, 9} {
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
	for _, words := range []int{1, 4} {
		exp := codecFor(t, words).exp
		stride := 8 * words
		two := make([]byte, 2*stride)
		two[0], two[stride] = 1, 2
		wrap := uint64(1<<63) / uint64(stride) * 2 // 2⁶¹ or 2⁵⁹: × stride = 2⁶⁴ ≡ 0
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
	job := &Job{Proto: protoVersion, NumNodes: 1, MaxStates: 100, FT: true, CheckpointDir: dir, Session: 1}
	for _, p := range fleet(3, 5, 2, 4, 20) {
		job.Profiles = append(job.Profiles, *p)
	}
	w, _, err := newMeshWorker(job, loopEnv{ts[0].(*loopTransport).group}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.shutdown()
	for sh := 0; sh < numShards; sh++ {
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
// returns an all-zero state, and no header field it has not checked against
// the file sizes an allocation. The
// seed corpus in testdata/fuzz/FuzzReadSegment holds an empty file, a bare
// header, valid narrow and wide segments, a count one above the body, a
// count that wraps the size product, and trailing bytes.
func FuzzReadSegment(f *testing.F) {
	narrow, wide := codecFor(f, 1).exp, codecFor(f, 4).exp
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
		if i := zeroState(states, exp.StateWords()); i >= 0 {
			t.Fatalf("state %d of the segment is all zero", i)
		}
		if err := writeSegment(out, states, trans, exp); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(out); err != nil || !bytes.Equal(again, file) {
			t.Fatalf("%d words of states, %d transitions written back as %d bytes, read from %d (%v)", len(states), trans, len(again), len(file), err)
		}
	})
}
