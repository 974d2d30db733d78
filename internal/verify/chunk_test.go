package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tightcps/internal/switching"
)

// The sequential driver processes a level in chunks (expand seqChunk
// states, then insert their successors with addChunk). These tests hold it
// to the search it replaced — one state expanded, its successors inserted
// one by one — without keeping a copy of the old driver around: refSearch
// is that search over a Go map, and refBFS runs it on the exported
// expansion seam.

// refSearch is the per-successor reference search over any successor
// function: expand one state, stop if it violates, otherwise insert its
// successors one by one, stopping at the first that exceeds the budget. It
// returns what the sequential engine must return — its Levels count each
// level's states as they are inserted, so a search that stops inside a
// level ends with that level's part — and the visited states in discovery
// order.
func refSearch[K comparable](init K, maxStates int, successors func(K) ([]K, int)) (Result, error, []K) {
	res := Result{Schedulable: true, States: 1, Levels: []int{1}}
	seen := map[K]bool{init: true}
	visited := []K{init}
	frontier := []K{init}
	for depth := 0; ; depth++ {
		res.Depth = depth
		res.Levels = append(res.Levels, 0) // level depth+1, counted as found
		var next []K
		for _, s := range frontier {
			succ, viol := successors(s)
			if viol >= 0 {
				res.Schedulable, res.Violator = false, viol
				return res, nil, visited
			}
			res.Transitions += len(succ)
			for _, ns := range succ {
				if seen[ns] {
					continue
				}
				seen[ns] = true
				res.States++
				res.Levels[depth+1]++
				if res.States > maxStates {
					return res, ErrTooLarge, visited
				}
				visited = append(visited, ns)
				next = append(next, ns)
			}
		}
		if len(next) == 0 {
			res.Levels = res.Levels[:depth+1]
			return res, nil, visited
		}
		frontier = next
	}
}

// plant makes v's search drivers expand the synthetic graph succ until the
// test ends. Its states are any nonzero words, so v's tables get 8-byte
// cells.
func plant(t *testing.T, v *Verifier, succ func(*Verifier, uint64, *expandScratch, []uint64, []uint32) ([]uint64, []uint32, int)) {
	expandState = succ
	v.keyBytes = 8
	t.Cleanup(func() { expandState = successors })
}

// testVerifier builds a sequential Verifier.
func testVerifier(t testing.TB, ps []*switching.Profile, cfg Config) *Verifier {
	t.Helper()
	cfg.Workers = 1
	v, err := New(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// refBFS is refSearch over a slot's exported expansion seam. Every state it
// expands must decode and pack again to the same bits — the fitted layout
// loses nothing a reachable state holds — and every state it stores must
// pass CheckWords: a peer's or a disk's copy of it is accepted.
func refBFS(t testing.TB, ps []*switching.Profile, cfg Config) (Result, error, []PackedState) {
	t.Helper()
	v := testVerifier(t, ps, cfg)
	e := v.Expander()
	scr := e.NewScratch()
	var buf []PackedState
	var hbuf []HashedState
	return refSearch(e.Initial(), v.cfg.MaxStates, func(s PackedState) ([]PackedState, int) {
		var c cstate
		v.unpack(uint64(s), &c)
		if again := PackedState(v.pack(&c)); again != s {
			t.Fatalf("state %x decodes to %+v, which packs to %x", s, c, again)
		}
		var viol int
		buf, viol = succStates(e, s, scr, &hbuf, buf[:0])
		if err := e.CheckWords([]uint64{uint64(s)}); err != nil {
			t.Fatalf("reachable state %x: %v", s, err)
		}
		for _, ns := range buf {
			if err := e.CheckWords([]uint64{uint64(ns)}); err != nil {
				t.Fatalf("reachable state %x: %v", ns, err)
			}
		}
		return buf, viol
	})
}

// sameVerdict compares everything the sequential engine promises to keep:
// the verdict, the counts and the level vector through Depth.
func sameVerdict(t *testing.T, name string, got Result, gerr error, want Result, werr error) {
	t.Helper()
	if !errors.Is(gerr, werr) {
		t.Fatalf("%s: err %v, reference %v", name, gerr, werr)
	}
	if got.Schedulable != want.Schedulable || got.States != want.States || got.Transitions != want.Transitions ||
		got.Depth != want.Depth || got.Violator != want.Violator {
		t.Fatalf("%s:\n engine    %+v\n reference %+v", name, got, want)
	}
	checkLevels(t, name+" (reference)", want)
	checkLevels(t, name, got)
	for k, n := range want.Levels[:want.Depth+1] {
		if got.Levels[k] != n {
			t.Fatalf("%s: level %d holds %d states, reference %d", name, k, got.Levels[k], n)
		}
	}
}

// checkLevels fails unless res.Levels covers levels 0..Depth and sums to
// States.
func checkLevels(t *testing.T, name string, res Result) {
	t.Helper()
	sum := 0
	for _, n := range res.Levels {
		sum += n
	}
	if len(res.Levels) <= res.Depth || sum != res.States {
		t.Fatalf("%s: %d levels summing to %d states, for depth %d and %d states", name, len(res.Levels), sum, res.Depth, res.States)
	}
}

// TestSequentialMatchesReferenceBFS: States, Transitions, Depth, Violator
// and the error are those of the per-successor search — for schedulable,
// violating and budget-busting slots, symmetry on and off.
// Budgets are placed so that the bust lands in the first chunk of a level,
// one state past a chunk's worth, mid-search and on the very last state.
func TestSequentialMatchesReferenceBFS(t *testing.T) {
	asym := []*switching.Profile{prof("A", 2, 2, 3, 15), prof("B", 6, 2, 4, 25), prof("C", 9, 3, 5, 30)}
	for _, c := range []struct {
		name string
		ps   []*switching.Profile
		cfg  Config
	}{
		{"single", []*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{NondetTies: true}},
		{"loosePair", []*switching.Profile{prof("A", 8, 2, 4, 40), prof("B", 8, 2, 4, 40)}, Config{NondetTies: true}},
		{"asymTriple", asym, Config{NondetTies: true}},
		{"overload", []*switching.Profile{prof("A", 0, 3, 5, 20), prof("B", 0, 3, 5, 20)}, Config{NondetTies: true}},
		{"S2", caseProfiles(t, "C6", "C2"), Config{NondetTies: true}},
		{"S2/det", caseProfiles(t, "C6", "C2"), Config{}},
		{"C1C5C6", caseProfiles(t, "C1", "C5", "C6"), Config{NondetTies: true}},
		{"viol3", caseProfiles(t, "C6", "C2", "C1"), Config{NondetTies: true}},
		{"fleet4", fleet(4, 6, 1, 2, 10), Config{NondetTies: true}},
		{"fleet5/sym", fleet(5, 6, 1, 2, 10), Config{NondetTies: true, SymmetryReduction: true}},
		{"fleet5/viol", fleet(5, 3, 1, 2, 10), Config{NondetTies: true}},
		{"fleet5/viol/sym", fleet(5, 3, 1, 2, 10), Config{NondetTies: true, SymmetryReduction: true}},
		{"fleet7/sym", fleet(7, 6, 1, 2, 9), Config{NondetTies: true, SymmetryReduction: true}},
	} {
		_, _, visited := refBFS(t, c.ps, c.cfg)
		n := len(visited)
		for _, max := range []int{0, 1, 2, seqChunk, seqChunk + 1, n / 2, n - 1, n} {
			cfg := c.cfg
			cfg.MaxStates = max
			want, werr, _ := refBFS(t, c.ps, cfg)
			got, gerr := testVerifier(t, c.ps, cfg).Run()
			name := fmt.Sprintf("%s MaxStates=%d", c.name, max)
			sameVerdict(t, name, got, gerr, want, werr)
			if werr != nil && got.States != max+1 {
				t.Fatalf("%s: budget bust at %d states, want %d", name, got.States, max+1)
			}
		}
	}
}

// TestSequentialChunkBoundaries runs the driver on a synthetic layered
// graph whose level widths sit below, on and above the chunk size, with
// duplicate successors inside and across chunks, and moves a violating
// state and the state budget across every position around a chunk edge.
// State (level l, index i) is l<<32 | i+1.
func TestSequentialChunkBoundaries(t *testing.T) {
	widths := []int{1, 3, seqChunk - 1, seqChunk, seqChunk + 1, 2 * seqChunk, 2*seqChunk + 5, 40, 3*seqChunk - 1, 1}
	// violator is the state whose expansion violates, 0 for none.
	graph := func(violator uint64) func(uint64) ([]uint64, int) {
		var buf []uint64
		return func(s uint64) ([]uint64, int) {
			if s == violator {
				return nil, 3
			}
			l, i := int(s>>32), int(uint32(s))-1
			buf = buf[:0]
			if l+1 == len(widths) {
				return buf, -1
			}
			// State i covers its share of the next level plus one state
			// either side, so neighbours overlap, and repeats its first
			// successor, so one expansion holds a duplicate.
			w, wl := widths[l+1], widths[l]
			for j := i*w/wl - 1; j <= (i+1)*w/wl+1; j++ {
				buf = append(buf, uint64(l+1)<<32|uint64((j+w)%w+1))
			}
			buf = append(buf, buf[0])
			return buf, -1
		}
	}
	v := testVerifier(t, []*switching.Profile{prof("A", 5, 2, 4, 20)}, Config{})
	var succ func(uint64) ([]uint64, int)
	plant(t, v, func(_ *Verifier, s uint64, _ *expandScratch, out []uint64, masks []uint32) ([]uint64, []uint32, int) {
		ns, viol := succ(s)
		if viol >= 0 {
			return out, masks, viol
		}
		for _, n := range ns {
			out, masks = append(out, n), append(masks, 0)
		}
		return out, masks, -1
	})
	run := func(violator uint64, max int) (Result, error) {
		v.cfg.MaxStates = max
		succ = graph(violator)
		return runSequential(v, 1)
	}
	const unlimited = 1 << 30
	want, werr, visited := refSearch(1, unlimited, graph(0))
	for l, w := range widths {
		if want.Levels[l] != w {
			t.Fatalf("level %d of the synthetic graph has %d states, want %d", l, want.Levels[l], w)
		}
	}
	got, gerr := run(0, unlimited)
	sameVerdict(t, "no violator", got, gerr, want, werr)

	// The violator at every chunk-edge position of every level, with and
	// without a budget that trips first; then every budget that trips.
	for l, w := range widths {
		for _, i := range []int{0, 1, seqChunk - 2, seqChunk - 1, seqChunk, seqChunk + 1, 2*seqChunk - 1, 2 * seqChunk, w - 1} {
			if i >= w {
				continue
			}
			viol := uint64(l)<<32 | uint64(i+1)
			for _, max := range []int{unlimited, len(visited) / 3} {
				want, werr, _ := refSearch(1, max, graph(viol))
				got, gerr := run(viol, max)
				sameVerdict(t, fmt.Sprintf("violator (%d,%d) MaxStates=%d", l, i, max), got, gerr, want, werr)
			}
		}
	}
	for max := 1; max < len(visited); max++ {
		want, werr, _ := refSearch(1, max, graph(0))
		got, gerr := run(0, max)
		sameVerdict(t, fmt.Sprintf("MaxStates=%d", max), got, gerr, want, werr)
		if got.States != max+1 {
			t.Fatalf("MaxStates=%d: stopped at %d states", max, got.States)
		}
	}
}

// TestSequentialPins pins the sequential engine's counts on the two slots
// the pipeline benchmark also pins, inside tier 1: V5 = S1 + C6 violates at
// depth 12 after 681,400 states with C1 (index 0) the first violator, and a
// budget of N states ends the search with exactly N+1.
func TestSequentialPins(t *testing.T) {
	v5, err := Slot(caseProfiles(t, "C1", "C5", "C4", "C3", "C6"), Config{NondetTies: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v5.Schedulable || v5.States != 681400 || v5.Depth != 12 || v5.Violator != 0 {
		t.Fatalf("V5: %+v, want unschedulable, 681400 states, depth 12, violator 0", v5)
	}
	s1 := caseProfiles(t, "C1", "C5", "C4", "C3")
	for _, n := range []int{1, 1000, 4097, 100000} {
		res, err := Slot(s1, Config{NondetTies: true, Workers: 1, MaxStates: n})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("S1 MaxStates=%d: err %v, want ErrTooLarge", n, err)
		}
		if res.States != n+1 {
			t.Fatalf("S1 MaxStates=%d: stopped at %d states, want %d", n, res.States, n+1)
		}
	}
}

// checkAddChunk inserts chunks into set and, key by key, into a map: the
// fresh indices addChunk reports must be the ones the map sees as new, in
// the same order — duplicates inside a chunk are fresh once, at their first
// position.
func checkAddChunk(t *testing.T, set *keySet, chunks [][]uint64) {
	t.Helper()
	seen := map[uint64]bool{}
	var fresh []int32
	for ci, chunk := range chunks {
		var want []int32
		for i, k := range chunk {
			if !seen[k] {
				seen[k] = true
				want = append(want, int32(i))
			}
		}
		fresh = set.addChunk(chunk, fresh[:0])
		if len(fresh) != len(want) {
			t.Fatalf("chunk %d (%d keys): %d fresh, map says %d", ci, len(chunk), len(fresh), len(want))
		}
		for j := range want {
			if fresh[j] != want[j] {
				t.Fatalf("chunk %d: fresh[%d] = %d, map says %d", ci, j, fresh[j], want[j])
			}
		}
		if set.len() != len(seen) {
			t.Fatalf("chunk %d: set holds %d keys, map %d", ci, set.len(), len(seen))
		}
	}
	for k := range seen {
		if !set.contains(k) {
			t.Fatalf("key %v lost", k)
		}
	}
}

// TestAddChunkRandomizedOracle drives addChunk against a map:
// random chunks with duplicates inside a chunk and keys already present,
// chunks of every size around seqChunk, a chunk that carries a 16-slot
// table across its load-factor threshold several times over, and chunks
// whose keys all hash to the last cells of the table, so their probe
// sequences wrap around its end and the last cell's load reads the padding —
// at every cell width, with keys that set the width's top byte.
func TestAddChunkRandomizedOracle(t *testing.T) {
	t.Run("narrow", func(t *testing.T) {
		t.Run("random", func(t *testing.T) { forWidths(t, addChunkRandom) })
		t.Run("threshold", func(t *testing.T) { forWidths(t, addChunkThreshold) })
		t.Run("wrap", func(t *testing.T) { forWidths(t, addChunkWrap) })
	})
}

// oraclePool draws 3000 keys of width w, few enough that chunks drawn from
// them repeat keys, and returns the generator that drew them.
func oraclePool(w int) (*rand.Rand, []uint64) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]uint64, 3000)
	for i := range pool {
		pool[i] = widthKey(w, rng.Uint64())
	}
	return rng, pool
}

// addChunkRandom: random chunks drawn from the pool, of every size around
// seqChunk, with duplicates inside a chunk and keys already present.
func addChunkRandom(t *testing.T, w int) {
	rng, pool := oraclePool(w)
	var chunks [][]uint64
	for _, size := range []int{0, 1, 2, seqChunk - 1, seqChunk, seqChunk + 1, 5 * seqChunk, 1, 700, 64, 2000} {
		c := make([]uint64, size)
		for i := range c {
			c[i] = pool[rng.Intn(len(pool))]
			if i > 0 && rng.Intn(4) == 0 {
				c[i] = c[rng.Intn(i)] // duplicate inside the chunk
			}
		}
		chunks = append(chunks, c)
	}
	checkAddChunk(t, newKeySet(16, w), chunks)
}

// addChunkThreshold: one chunk of 1000 distinct keys into a 16-slot table:
// the reserve in front of the probe pass must carry it over the threshold
// (the touch pass indexes with the new mask, the insert pass must not
// rehash).
func addChunkThreshold(t *testing.T, w int) {
	_, pool := oraclePool(w)
	checkAddChunk(t, newKeySet(16, w), [][]uint64{pool[:1000], pool[:1200]})
}

// addChunkWrap: probe wrap-around. In a table of 1<<10 cells (64 at one
// byte, whose 128 keys would not find forty homes among the last three of
// 1<<10) that will not grow, find keys whose home is one of the last three
// cells; up to forty of them form a run that wraps to cell 0. Inserts change
// only their cells' bytes: the padding stays zero.
func addChunkWrap(t *testing.T, w int) {
	size := min(1<<10, widthSpace(w)/2)
	var tail []uint64
	for x := uint64(0); len(tail) < 40 && x < uint64(widthSpace(w)); x++ {
		if k := widthKey(w, x); hashKey(k)&uint64(size-1) >= uint64(size-3) {
			tail = append(tail, k)
		}
	}
	s := newKeySet(size, w)
	checkAddChunk(t, s, [][]uint64{tail[:len(tail)*5/8], tail})
	if s.size != size || s.cell(0) == 0 || s.cell(size-1) == 0 {
		t.Fatalf("probe run of %d keys did not wrap: table %d, cell0=%x last=%x", len(tail), s.size, s.cell(0), s.cell(size-1))
	}
	if pad := s.tab[size*w:]; len(pad) != cellPad || slices.ContainsFunc(pad, func(b byte) bool { return b != 0 }) {
		t.Fatalf("the table's padding reads %x, want %d zero bytes", pad, cellPad)
	}
}

// TestAddChunkAllocFree is the steady-state gate of the chunk insert: once
// the set has been reserved for the keys and its hash scratch has grown to
// the chunk size, a chunk costs no allocation — fresh or duplicate.
// (TestSequentialSearchAllocAmortized counts the driver's chunk
// buffers in a whole run.)
func TestAddChunkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	t.Run("narrow", addChunkAllocs)
}

func addChunkAllocs(t *testing.T) {
	const chunks = 64
	keys := make([]uint64, chunks*seqChunk)
	for i := range keys {
		keys[i] = mix(uint64(i + 1))
	}
	fresh := make([]int32, 0, seqChunk)
	s := newKeySet(16, 8)
	s.reserve(len(keys))
	s.addChunk(keys[:seqChunk], fresh) // grows the hash scratch
	lo := 0
	allocs := testing.AllocsPerRun(2*chunks-1, func() { // second half re-inserts: all duplicates
		fresh = s.addChunk(keys[lo%len(keys):lo%len(keys)+seqChunk], fresh[:0])
		lo += seqChunk
	})
	if allocs != 0 {
		t.Fatalf("addChunk allocates %.2f times per chunk in steady state, want 0", allocs)
	}
}

// s1Keys returns the 1,440,712 states of slot S1 in the sequential engine's
// discovery order — the key stream the visited set sees.
func s1Keys(b *testing.B) []uint64 {
	res, err, visited := refBFS(b, caseProfiles(b, "C1", "C5", "C4", "C3"), Config{NondetTies: true})
	if err != nil || res.States != 1440712 {
		b.Fatalf("S1 reference search: %+v, %v", res, err)
	}
	keys := make([]uint64, len(visited))
	for i, s := range visited {
		keys[i] = uint64(s)
	}
	return keys
}

// benchSetInsert times one miss pass (every S1 state inserted into a set
// reserved for them) and one hit pass (every state inserted again), per key
// or in seqChunk-sized chunks. ns/op is per pass pair; the miss_ns/key and
// hit_ns/key columns are the layer numbers.
func benchSetInsert(b *testing.B, keys []uint64, chunked bool) {
	var missNs, hitNs int64
	fresh := make([]int32, 0, seqChunk)
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		set := newKeySet(16, 5) // S1's states are 40 bits
		set.reserve(len(keys))
		b.StartTimer()
		for pass, ns := range []*int64{&missNs, &hitNs} {
			t0 := b.Elapsed()
			count := 0
			if chunked {
				for lo := 0; lo < len(keys); lo += seqChunk {
					fresh = set.addChunk(keys[lo:min(lo+seqChunk, len(keys))], fresh[:0])
					count += len(fresh)
				}
			} else {
				for _, k := range keys {
					if set.add(k) {
						count++
					}
				}
			}
			*ns += int64(b.Elapsed() - t0)
			if want := (1 - pass) * len(keys); count != want {
				b.Fatalf("pass %d: %d fresh keys, want %d", pass, count, want)
			}
		}
		b.StopTimer()
		set.release()
	}
	per := float64(b.N) * float64(len(keys))
	b.ReportMetric(float64(missNs)/per, "miss_ns/key")
	b.ReportMetric(float64(hitNs)/per, "hit_ns/key")
}

// BenchmarkSetInsertNarrow is the visited-set layer on the S1 key stream:
// perkey is the insert loop the sequential driver used to run, chunked the
// probe-ahead insert it runs now.
func BenchmarkSetInsertNarrow(b *testing.B) {
	keys := s1Keys(b)
	b.Run("perkey", func(b *testing.B) { benchSetInsert(b, keys, false) })
	b.Run("chunked", func(b *testing.B) { benchSetInsert(b, keys, true) })
}
