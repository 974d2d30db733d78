//go:build !race

package admit

// raceEnabled reports whether the race detector instruments this build; the
// allocation gates skip under it (instrumentation allocates on its own).
const raceEnabled = false
