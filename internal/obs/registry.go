// Package obs is the stack's telemetry plane: a dependency-free metrics
// registry with Prometheus-style text exposition, and per-run traces that
// follow a verification from the admission boundary through the engine
// and the distributed mesh.
//
// The registry serves the hot paths of internal/verify and
// internal/dverify, so its update operations — Counter.Add,
// Gauge.Add, Histogram.Observe — are lock-free atomics and
// allocation-free: the S1 sequential search holds an ~80 allocs/op gate
// with telemetry enabled, which no map lookup or label rendering on the
// update path would survive. All allocation
// happens at registration: a metric handle is created (or found) once,
// with its label set pre-rendered into the series line, and updates touch
// only the handle's atomics.
//
// Exposition is the Prometheus text format (HELP/TYPE lines, escaped
// label values, cumulative histogram buckets) via Registry.WritePrometheus
// or the /metricsz handler; Snapshot/PublishExpvar bridge the same data
// into expvar for tooling that already scrapes /debug/vars.
//
// Run traces (trace.go) are the second half of the plane: obs.Trace
// records per-level spans, per-node and per-link breakdowns of one
// verification run under a run ID minted at the admission boundary, and
// serializes to structured JSON (a -tracefile report).
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family. Exactly one of the value
// holders is non-nil, matching the family's kind; all are set under the
// registry lock when the series is created. gfn is atomic because
// GaugeFunc re-registration replaces it while exposition may be reading.
type series struct {
	labels string // pre-rendered `key="val",...` (no braces), "" when unlabeled
	ctr    *Counter
	gauge  *Gauge
	gfn    atomic.Pointer[func() float64]
	hist   *Histogram
}

// family is one metric name with its help text, type and series set.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram bucket upper bounds (ascending, +Inf implied)
	series []*series // insertion-ordered for stable exposition
	bySig  map[string]*series
}

// Registry holds metric families and renders them. Registration takes the
// registry lock and may allocate; handles returned from it update without
// either. The zero value is not usable — create with NewRegistry or use
// Default.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	expvar bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Default is the process-wide registry every package-level constructor
// registers on; /metricsz endpoints serve it.
var Default = NewRegistry()

// DefBuckets are the default latency histogram bounds, in seconds, spanning
// sub-millisecond cache hits to minute-long distributed searches.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}

// labelSig renders k/v pairs into the canonical label body, sorted by key
// so the same label set always maps to the same series.
func labelSig(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the exposition format's label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition format's HELP-text escaping.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup finds or creates the (family, series) slot for a registration.
// init fills a freshly created series' value holder; it runs under the
// registry lock, so a concurrent lookup of the same series never observes
// a handle-less series.
func (r *Registry) lookup(name, help string, kind metricKind, kv []string, init func(f *family, s *series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bySig: map[string]*series{}}
		r.fams = append(r.fams, f)
		r.byName[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	sig := labelSig(kv)
	if s, ok := f.bySig[sig]; ok {
		return s
	}
	s := &series{labels: sig}
	init(f, s)
	f.bySig[sig] = s
	f.series = append(f.series, s)
	return s
}

// Counter is a monotonically increasing metric. Add and Inc are lock-free
// and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that moves up and down.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: a binary search over the immutable bounds plus three
// atomic updates (bucket, count, CAS-accumulated float sum).
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket implied
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v (sort.SearchFloat64s allocates
	// nothing, but an explicit loop avoids the func-value indirection).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count is the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum is the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, JSON-shaped
// for /statsz.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative bucket of a snapshot; LE is the upper
// bound (math.Inf(1) for the overflow bucket, serialized as omitted).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"` // cumulative, Prometheus-style
}

// Snapshot copies the histogram's state. Buckets are cumulative and
// include the +Inf bucket (whose count equals Count).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
	}
	return s
}

// Counter registers (or finds) a counter series. Labels are key,value
// pairs constant for the handle's lifetime; the same name+labels always
// returns the same handle, so lazy per-link registration is idempotent.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func(_ *family, s *series) {
		s.ctr = &Counter{}
	})
	return s.ctr
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func(_ *family, s *series) {
		s.gauge = &Gauge{}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q already registered as a func gauge", name))
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read at exposition time.
// Re-registering the same name+labels replaces the function — a restarted
// service rebinds the series to its live state instead of exposing a
// predecessor's.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.lookup(name, help, kindGauge, labels, func(_ *family, _ *series) {})
	s.gfn.Store(&fn)
}

// Histogram registers (or finds) a histogram series over the given bucket
// upper bounds (ascending; a +Inf bucket is implied). All series of one
// family share the first registration's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func(f *family, s *series) {
		if f.bounds == nil {
			f.bounds = append([]float64(nil), bounds...)
		}
		s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	})
	return s.hist
}

// Package-level constructors on the Default registry.

// NewCounter registers a counter on Default.
func NewCounter(name, help string, labels ...string) *Counter {
	return Default.Counter(name, help, labels...)
}

// NewGauge registers a gauge on Default.
func NewGauge(name, help string, labels ...string) *Gauge {
	return Default.Gauge(name, help, labels...)
}

// NewGaugeFunc registers a function gauge on Default.
func NewGaugeFunc(name, help string, fn func() float64, labels ...string) {
	Default.GaugeFunc(name, help, fn, labels...)
}

// NewHistogram registers a histogram on Default.
func NewHistogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return Default.Histogram(name, help, bounds, labels...)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		sers := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	brace := func(extra string) string {
		switch {
		case s.labels == "" && extra == "":
			return ""
		case s.labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + s.labels + "}"
		}
		return "{" + s.labels + "," + extra + "}"
	}
	switch {
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, brace(""), s.ctr.Value())
		return err
	case s.gfn.Load() != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, brace(""), formatFloat((*s.gfn.Load())()))
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, brace(""), s.gauge.Value())
		return err
	case s.hist != nil:
		snap := s.hist.Snapshot()
		for _, b := range snap.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, brace(`le="`+formatFloat(b.LE)+`"`), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, brace(""), formatFloat(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, brace(""), snap.Count)
		return err
	}
	return nil
}

// Handler serves the registry at any path — mount it at GET /metricsz.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Snapshot flattens the registry into an expvar-friendly map: one entry
// per series keyed "name{labels}"; histograms map to their snapshots.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	out := map[string]any{}
	for _, f := range fams {
		r.mu.Lock()
		sers := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range sers {
			key := f.name
			if s.labels != "" {
				key += "{" + s.labels + "}"
			}
			switch {
			case s.ctr != nil:
				out[key] = s.ctr.Value()
			case s.gfn.Load() != nil:
				out[key] = (*s.gfn.Load())()
			case s.gauge != nil:
				out[key] = s.gauge.Value()
			case s.hist != nil:
				out[key] = s.hist.Snapshot()
			}
		}
	}
	return out
}

// PublishExpvar exposes the registry under the given expvar name
// (/debug/vars). Safe to call once per registry; further calls are no-ops
// (expvar panics on duplicate names).
func (r *Registry) PublishExpvar(name string) {
	r.mu.Lock()
	done := r.expvar
	r.expvar = true
	r.mu.Unlock()
	if done {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
