//go:build !linux

package verify

// newTable returns a zeroed table of n bytes on the heap: tables are
// mapped off the heap only on Linux (tablemem_linux.go).
func newTable(n int) ([]byte, []byte) { return make([]byte, n), nil }

// freeTable leaves a heap table to the collector.
func freeTable([]byte, []byte) {}

// releasePart has nothing to hand back: every table is on the heap.
func releasePart([]byte, []byte) {}

// cellAt returns the 8 bytes of tab from byte off.
func cellAt(tab []byte, off uint64) *[8]byte { return (*[8]byte)(tab[off:]) }

// tablePiece is rehashPiece: no table is mapped, so no piece is handed back.
func tablePiece() int { return smallPiece }
