package verify

// Multi-word ("wide") packed encoding: application sets whose composed
// state exceeds 64 bits are packed into a fixed-size array of words.
// Applications occupy straddle-free lanes of appBits bits each,
// ⌊64/appBits⌋ lanes per word, filling words 0..wideAppWords−1; the final
// header word carries the occupant index (low byte, 0xFF = slot idle) and
// the occupant dwell cT (next 4 bits). See DESIGN.md for the field diagram.
//
// The all-zero wstate is unreachable — an idle slot stores 0xFF in the
// header, and any occupied slot puts phase pGranted (2) in the occupant's
// lane — so zero doubles as the empty-slot sentinel of the open-addressing
// sets, exactly as it does for the one-word encoding.

const (
	wideWords    = 4             // words per wide state (32 bytes)
	wideAppWords = wideWords - 1 // words carrying application lanes
	wideIdle     = 0xFF          // header occupant byte when the slot is idle
)

// wstate is the multi-word packed composed state. It is comparable, so it
// keys Go maps (trace parents) and compares with == in the hash sets.
type wstate [wideWords]uint64

// initialWide returns the all-Steady, slot-idle state in the wide encoding.
func (v *Verifier) initialWide() wstate { return wstate{wideAppWords: wideIdle} }

// hashW chains the splitmix64 finalizer across the words, so every bit of
// every word diffuses into the shard selector and the probe index.
func hashW(s wstate) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range s {
		h = hashU64(h ^ w)
	}
	return h
}

// lessW orders wide states lexicographically (word 0 most significant) —
// the total order behind the parallel search's minimum-violator tie-break.
func lessW(a, b wstate) bool {
	for i := 0; i < wideWords; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
