//go:build !linux

package verify

// newTable returns a zeroed table of size keys on the heap: tables are
// mapped off the heap only on Linux (tablemem_linux.go).
func newTable[K stateKey](size int) ([]K, []byte) { return make([]K, size), nil }

// freeTable leaves a heap table to the collector.
func freeTable[K stateKey]([]K, []byte) {}
