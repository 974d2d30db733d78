package verify

import "time"

// LaneTuner adapts the number of active expansion lanes of a distributed
// node's pool between sampling windows (poll batches in the mesh workers).
// It exists for Workers = 0 ("auto") there:
// the pool is sized at GOMAXPROCS but the tuner decides how many lanes
// actually wake each window, hill-climbing on observed throughput with a
// contention override. The local search does not use it: its lanes share
// nothing to contend on (parallel.go).
//
// Policy: start with every lane active. After each window big enough to be a
// signal (tuneMinStates states), compare states/sec against the previous
// window: a ≥5% improvement keeps stepping the lane count in the current
// direction, a ≥5% regression reverses direction and steps back, anything in
// between holds. A window whose visited-set CAS-retry rate exceeds
// tuneRetryPerState forces the direction down regardless — retries measure
// lanes serializing on the same cache lines, which throughput alone notices
// one window late. The walk is clamped to [1, max]. All state is owned by
// the single orchestrator goroutine; Observe is never called concurrently.
type LaneTuner struct {
	max      int
	lanes    int
	dir      int
	prevRate float64
}

const (
	// tuneMinStates is the smallest window that updates the tuner —
	// levels below it are noise (and usually run sequentially anyway).
	tuneMinStates = 4096
	// tuneRetryPerState is the CAS-retry rate above which a window is
	// called contended and the tuner steps down regardless of throughput.
	tuneRetryPerState = 0.05
)

// NewLaneTuner returns a tuner over at most max lanes, all initially active,
// probing downward first (the cheap direction on oversubscribed hosts).
func NewLaneTuner(max int) *LaneTuner {
	if max < 1 {
		max = 1
	}
	return &LaneTuner{max: max, lanes: max, dir: -1}
}

// Lanes returns the lane count the next window should run with.
func (t *LaneTuner) Lanes() int { return t.lanes }

// Max returns the pool size the tuner was built for.
func (t *LaneTuner) Max() int { return t.max }

// Observe folds one completed window into the walk: states expanded, wall
// time, and the visited-set CAS-retry delta for the window.
func (t *LaneTuner) Observe(states int, elapsed time.Duration, retries int64) {
	if t.max == 1 || states < tuneMinStates || elapsed <= 0 {
		return
	}
	rate := float64(states) / elapsed.Seconds()
	contended := float64(retries) > tuneRetryPerState*float64(states)
	switch {
	case contended:
		t.dir = -1
	case t.prevRate == 0:
		// First signal: keep exploring in the current direction.
	case rate >= t.prevRate*1.05:
		// Improved: keep going.
	case rate <= t.prevRate*0.95:
		t.dir = -t.dir
	default:
		// Plateau: hold the lane count, keep the rate fresh.
		t.prevRate = rate
		obsAutoLanes.Set(int64(t.lanes))
		return
	}
	t.prevRate = rate
	t.lanes += t.dir
	if t.lanes < 1 {
		t.lanes = 1
		t.dir = 1
	}
	if t.lanes > t.max {
		t.lanes = t.max
		t.dir = -1
	}
	obsAutoLanes.Set(int64(t.lanes))
	obsLaneOccupancy.Observe(float64(t.lanes) / float64(t.max))
}
