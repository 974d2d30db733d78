//go:build linux

package verify

import (
	"bytes"
	"os"
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on the platforms this
// runs on, and the alignment of a mapped table.
const hugePage = 2 << 20

// newTable returns a zeroed table of n bytes and, for a table of
// mapTableBytes or more, the memory mapping behind it. Such a table lives
// off the Go heap: an anonymous private mapping, the table placed at its
// first huge-page boundary and advised MADV_HUGEPAGE, so the kernel can back
// it with huge pages where transparent huge pages are "always" or
// "madvise". Its pages go back to the kernel in releasePart and freeTable,
// not at some later collection. A smaller table, or one the kernel refuses
// to map, is an ordinary slice. The keys hold no pointers, so the collector
// has nothing to find in a mapping.
func newTable(n int) ([]byte, []byte) {
	if n < mapTableBytes {
		return make([]byte, n), nil
	}
	mem, err := syscall.Mmap(-1, 0, n+hugePage, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, n), nil
	}
	off := -int(uintptr(unsafe.Pointer(&mem[0]))) & (hugePage - 1)
	table := mem[off : off+n]
	// Advice only: a kernel without transparent huge pages refuses it and
	// backs the table with small pages, which is still correct.
	_ = syscall.Madvise(table, syscall.MADV_HUGEPAGE)
	obsTableBytes.Add(int64(n))
	tablesMapped.Add(1)
	return table, mem
}

// releasePart hands the pages of part, a piece of the mapped table behind
// mem that holds nothing the caller still needs, back to the kernel
// (MADV_DONTNEED): the mapping stays, and the piece reads as zeros from then
// on. part must start on a page and end on one or at the table's end, or
// the advice, rounded up to the page, would zero what follows it. A heap
// table (mem nil) is left alone.
func releasePart(part []byte, mem []byte) {
	if mem == nil {
		return
	}
	if err := syscall.Madvise(part, syscall.MADV_DONTNEED); err != nil {
		panic("verify: releasing a visited-set table's pages: " + err.Error()) // only a bug passes a piece outside a mapping
	}
	obsTableBytes.Add(-int64(len(part)))
}

// freeTable unmaps the mapping newTable returned with table, where table is
// what of it is still held: the whole table, or nil once releasePart has
// handed every piece back. A heap table (mem nil) is left to the collector.
func freeTable(table []byte, mem []byte) {
	if mem == nil {
		return
	}
	obsTableBytes.Add(-int64(len(table)))
	if err := syscall.Munmap(mem); err != nil {
		panic("verify: unmapping a visited-set table: " + err.Error()) // only a bug passes a mapping twice
	}
}

// cellAt returns the 8 bytes of tab from byte off, which the caller keeps
// at most len(tab) − 8 (keySet's probe: a cell starts below the padding),
// without a bounds check.
func cellAt(tab []byte, off uint64) *[8]byte {
	return (*[8]byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(tab)), off))
}

// tablePiece is rehashPiece: a huge page unless transparent huge
// pages are off ("[never]", or no such setting), else smallPiece. Tables are
// advised MADV_HUGEPAGE, so under "always" and "madvise" a touched table is
// backed by huge pages, and handing one back in smaller pieces splits each
// first: a 4 MiB table took 0.46–0.50 ms in 64 KiB pieces against 0.03 ms
// in 2 MiB ones. On small pages a smaller piece holds less per growth.
func tablePiece() int {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(b, []byte("[never]")) {
		return smallPiece
	}
	return hugePage
}
