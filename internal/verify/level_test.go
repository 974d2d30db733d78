package verify

import (
	"slices"
	"testing"
)

// TestLevelStore holds the level store to a plain slice: gathers that
// cross block boundaries keep every entry in order, span cuts at the end
// of its block and of the level, and the blocks a level drops and
// releases go back to the pool once each, so the next level reuses them
// and allocates none.
func TestLevelStore(t *testing.T) {
	var pool blockPool[int32]
	var l level[int32]
	var want []int32
	src := make([]int32, 3*levelBlock/2)
	for i := range src {
		src[i] = int32(i) + 1
	}
	idx := make([]int32, 0, len(src))
	for i := range src {
		if i%3 != 1 {
			idx = append(idx, int32(i))
		}
	}
	l.push(-1, &pool)
	want = append(want, -1)
	for range 4 { // 4 × 4,096 entries: the second and the fourth cross a block boundary
		l.gather(src, idx[:levelBlock/2], &pool)
		for _, i := range idx[:levelBlock/2] {
			want = append(want, src[i])
		}
	}
	if l.len() != len(want) || len(l.blocks) != 3 {
		t.Fatalf("%d entries in %d blocks, want %d in 3", l.len(), len(l.blocks), len(want))
	}
	var got []int32
	for lo := 0; lo < l.len(); {
		s := l.span(lo, seqChunk+5)
		if want := min(seqChunk+5, levelBlock-lo%levelBlock, l.len()-lo); len(s) != want {
			t.Fatalf("span(%d) has %d entries, want %d", lo, len(s), want)
		}
		got = append(got, s...)
		lo += len(s)
	}
	if !slices.Equal(got, want) {
		t.Fatal("spans do not read back the entries in order")
	}
	for _, i := range []int{0, 1, levelBlock - 1, levelBlock, l.len() - 1} {
		if l.at(i) != want[i] {
			t.Fatalf("at(%d) = %d, want %d", i, l.at(i), want[i])
		}
	}
	l.drop(0, &pool)
	if len(pool) != 1 || l.at(levelBlock) != want[levelBlock] {
		t.Fatalf("drop: %d pooled blocks, at(%d) = %d", len(pool), levelBlock, l.at(levelBlock))
	}
	l.release(&pool)
	if len(pool) != 3 || l.len() != 0 || len(l.blocks) != 0 {
		t.Fatalf("release: %d pooled blocks, %d entries in %d blocks; want 3, 0, 0", len(pool), l.len(), len(l.blocks))
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	if allocs := testing.AllocsPerRun(5, func() {
		l.gather(src, idx, &pool)
		l.release(&pool)
	}); allocs != 0 {
		t.Fatalf("a level refilled from the pool allocates %.0f times, want 0", allocs)
	}
}
