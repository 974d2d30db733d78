package verify

// levelBlock is the size, in entries, of a block of a level store: a
// multiple of seqChunk, so a chunk of frontier states that starts on a
// chunk boundary never straddles two blocks. 8,192 entries are 64 KiB of
// narrow keys, 192 KiB of wide ones: large enough that a block is one
// allocation per 8,192 states, small enough that a level rounds up by at
// most one block (DESIGN.md §4, "Level store").
const levelBlock = 8192

// level is one BFS level held in fixed-size blocks instead of one slice
// grown by append: a level never moves or doubles, and the blocks of a
// finished level go back to a free list (blockPool) from which the next
// level draws. Every search driver keeps its frontier and next level in it
// — the sequential driver, every lane of a node — and rebuildPath its
// levels. It holds n entries; blocks[i] holds entries
// i·levelBlock .. i·levelBlock + levelBlock − 1, every block but the last
// full.
type level[T any] struct {
	blocks [][]T // each levelBlock long
	n      int
}

// blockPool is the free list of one search's level blocks. It is owned by
// one goroutine at a time: the sequential driver's, or one lane's.
type blockPool[T any] [][]T

// len is the number of entries in the level.
func (l *level[T]) len() int { return l.n }

// at returns entry i.
func (l *level[T]) at(i int) T { return l.blocks[i/levelBlock][i%levelBlock] }

// span returns entries lo .. lo + most − 1, cut at the end of lo's block
// and at the end of the level: contiguous, so a driver expands it as a
// slice.
func (l *level[T]) span(lo, most int) []T {
	off := lo % levelBlock
	return l.blocks[lo/levelBlock][off:min(off+most, levelBlock, off+l.n-lo)]
}

// room returns the free tail of the level's last block, taking a block
// from the pool, or allocating one, when the last block is full; the
// caller fills a prefix of it and commits that many with l.n += k.
func (l *level[T]) room(pool *blockPool[T]) []T {
	off := l.n % levelBlock
	if off == 0 {
		var b []T
		if p := *pool; len(p) > 0 {
			b, *pool = p[len(p)-1], p[:len(p)-1]
		} else {
			b = make([]T, levelBlock)
		}
		l.blocks = append(l.blocks, b)
	}
	return l.blocks[len(l.blocks)-1][off:]
}

// gather appends src[i] for every i of idx, in order, a block's free tail
// at a time: the one capacity check is per block, not per entry.
func (l *level[T]) gather(src []T, idx []int32, pool *blockPool[T]) {
	for len(idx) > 0 {
		dst := l.room(pool)
		m := min(len(dst), len(idx))
		for j, i := range idx[:m] {
			dst[j] = src[i]
		}
		l.n += m
		idx = idx[m:]
	}
}

// push appends one entry.
func (l *level[T]) push(x T, pool *blockPool[T]) {
	l.room(pool)[0] = x
	l.n++
}

// drop hands block b, which the caller has read to its end and will not
// read again, to the pool before the level is done: the next level, filling
// as this one is expanded, takes it back.
func (l *level[T]) drop(b int, pool *blockPool[T]) {
	*pool = append(*pool, l.blocks[b])
	l.blocks[b] = nil
}

// release empties the level and hands its blocks, those not dropped, to
// the pool.
func (l *level[T]) release(pool *blockPool[T]) {
	for _, b := range l.blocks {
		if b != nil {
			*pool = append(*pool, b)
		}
	}
	clear(l.blocks)
	l.blocks, l.n = l.blocks[:0], 0
}
