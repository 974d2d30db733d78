package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the ≤-bound (Prometheus le) bucketing
// convention: a value exactly on a bound lands in that bound's bucket, a
// value above every bound lands in +Inf, and the snapshot's cumulative
// counts all end at Count.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_h", "test", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 6, 1e9} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 7 {
		t.Fatalf("count = %d, want 7", snap.Count)
	}
	if want := 0.5 + 1 + 1.0000001 + 2 + 5 + 6 + 1e9; snap.Sum != want {
		t.Fatalf("sum = %v, want %v", snap.Sum, want)
	}
	// Cumulative: le=1 gets {0.5, 1}; le=2 adds {1.0000001, 2}; le=5 adds
	// {5}; +Inf adds {6, 1e9}.
	wantCum := []uint64{2, 4, 5, 7}
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(snap.Buckets), len(wantCum))
	}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%v): cumulative %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[len(snap.Buckets)-1].LE, 1) {
		t.Error("last bucket bound must be +Inf")
	}
}

// TestWritePrometheus checks the exposition text: HELP/TYPE lines per
// family, label rendering with escaping, cumulative histogram buckets with
// le labels, and the _sum/_count pair.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "Counts\nthings with a \\ in the help.").Add(3)
	r.Counter("t_labeled_total", "Labeled.", "link", `0->1`).Add(7)
	r.Counter("t_labeled_total", "Labeled.", "link", "quote\"back\\slash\nnl").Inc()
	r.Gauge("t_depth", "Depth.").Add(-2)
	r.GaugeFunc("t_fn", "Func gauge.", func() float64 { return 2.5 })
	h := r.Histogram("t_seconds", "Latency.", []float64{0.1, 1})
	// Dyadic values: the CAS-accumulated sum must format exactly.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(32)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP t_total Counts\\nthings with a \\\\ in the help.\n",
		"# TYPE t_total counter\n",
		"t_total 3\n",
		`t_labeled_total{link="0->1"} 7` + "\n",
		`t_labeled_total{link="quote\"back\\slash\nnl"} 1` + "\n",
		"# TYPE t_depth gauge\n",
		"t_depth -2\n",
		"t_fn 2.5\n",
		"# TYPE t_seconds histogram\n",
		`t_seconds_bucket{le="0.1"} 1` + "\n",
		`t_seconds_bucket{le="1"} 2` + "\n",
		`t_seconds_bucket{le="+Inf"} 3` + "\n",
		"t_seconds_sum 32.5625\n",
		"t_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
}

// TestRegistrationIdempotent: the same name+labels returns the same handle
// (lazy per-link registration relies on this), distinct label values make
// distinct series, and GaugeFunc re-registration replaces the function.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_total", "help", "k", "v")
	b := r.Counter("t_total", "help", "k", "v")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("t_total", "help", "k", "w"); c == a {
		t.Fatal("distinct label values must make distinct series")
	}
	r.GaugeFunc("t_fn", "help", func() float64 { return 1 })
	r.GaugeFunc("t_fn", "help", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t_fn 2\n") {
		t.Fatalf("re-registered gauge func must win, got:\n%s", sb.String())
	}
}

// TestConcurrentUpdates hammers one counter and one histogram from many
// goroutines (run under -race in CI) and checks the totals are exact — the
// hot-path updates must be atomic, not just fast.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "c")
	h := r.Histogram("t_seconds", "h", DefBuckets)
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), float64(workers*perWorker)*0.001; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// TestHotPathAllocFree gates the telemetry hot path itself: once the
// handles exist, counter/gauge/histogram updates are 0 allocs/op — the
// engine's ~80 allocs/op budget has no room for metrics.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI job")
	}
	r := NewRegistry()
	c := r.Counter("t_total", "c")
	g := r.Gauge("t_depth", "g")
	h := r.Histogram("t_seconds", "h", DefBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Add(-4)
		h.Observe(0.25)
		h.Observe(1e6) // overflow bucket
	})
	if allocs != 0 {
		t.Fatalf("hot-path updates allocate %.1f times per run, want 0", allocs)
	}
	// Re-looking-up an existing handle must not allocate new state either
	// (it may allocate for the label signature; that's registration, not
	// the hot path — so only the handle identity is asserted here).
	if r.Counter("t_total", "c") != c {
		t.Fatal("lookup must return the registered handle")
	}
}
