//go:build linux

package verify

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on the platforms this
// runs on, and the alignment of a mapped table.
const hugePage = 2 << 20

// newTable returns a zeroed table of size keys and, for a table of
// mapTableBytes or more, the memory mapping behind it. Such a table lives
// off the Go heap: an anonymous private mapping, the table placed at its
// first huge-page boundary and advised MADV_HUGEPAGE, so the kernel can back
// it with huge pages where transparent huge pages are "always" or
// "madvise". Its pages go back to the kernel in freeTable, not at some
// later collection. A smaller table, or one the kernel refuses to map, is
// an ordinary slice. The keys hold no pointers, so the collector has
// nothing to find in a mapping.
func newTable(size int) ([]uint64, []byte) {
	n := 8 * size
	if n < mapTableBytes {
		return make([]uint64, size), nil
	}
	mem, err := syscall.Mmap(-1, 0, n+hugePage, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]uint64, size), nil
	}
	off := -int(uintptr(unsafe.Pointer(&mem[0]))) & (hugePage - 1)
	table := mem[off : off+n]
	// Advice only: a kernel without transparent huge pages refuses it and
	// backs the table with small pages, which is still correct.
	_ = syscall.Madvise(table, syscall.MADV_HUGEPAGE)
	obsTableBytes.Add(int64(n))
	tablesMapped.Add(1)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&table[0])), size), mem
}

// freeTable unmaps the mapping newTable returned with table; a heap table
// (mem nil) is left to the collector.
func freeTable(table []uint64, mem []byte) {
	if mem == nil {
		return
	}
	obsTableBytes.Add(-int64(8 * len(table)))
	if err := syscall.Munmap(mem); err != nil {
		panic("verify: unmapping a visited-set table: " + err.Error()) // only a bug passes a mapping twice
	}
}
