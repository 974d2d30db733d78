//go:build !linux

package verify

// newTable returns a zeroed table of size keys on the heap: tables are
// mapped off the heap only on Linux (tablemem_linux.go).
func newTable(size int) ([]uint64, []byte) { return make([]uint64, size), nil }

// freeTable leaves a heap table to the collector.
func freeTable([]uint64, []byte) {}
