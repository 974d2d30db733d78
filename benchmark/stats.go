package main

import (
	"fmt"
	"sort"
	"sync"
)

// recorder collects the samples of one run, keyed by metric name. A
// metric's reported value is the median of its samples.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) median(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.samples[name])
}

// row is one reported metric of one run.
type row struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// rows summarizes every recorded metric, rejecting names the catalog does
// not list for this workload and applicable metrics that were never
// measured — either is a bug in the benchmark, not in the program.
func (r *recorder) rows(workload string, traced bool) (map[string]row, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]row{}
	for name, s := range r.samples {
		def, ok := findMetric(name)
		if !ok || !def.on(workload) {
			return nil, fmt.Errorf("metric %q is not in the catalog for workload %s", name, workload)
		}
		sorted := sortedCopy(s)
		q1, q3 := quartiles(sorted)
		out[name] = row{
			Value: medianSorted(sorted), Unit: def.Unit, Better: def.Better, Bound: def.Bound,
			N: len(sorted), Q1: q1, Q3: q3, Min: sorted[0], Max: sorted[len(sorted)-1],
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range list {
			if _, ok := out[def.Name]; !ok && def.on(workload) && (traced || !def.Traced) {
				return nil, fmt.Errorf("metric %q was not measured on workload %s", def.Name, workload)
			}
		}
	}
	return out, nil
}

func sortedCopy(s []float64) []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func median(s []float64) float64 { return medianSorted(sortedCopy(s)) }

func medianSorted(c []float64) float64 {
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile of sorted data exactly as
// Python's statistics.quantiles(data, n=4) does (the driver's spread rule).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-quantile (0..1) of sorted data, nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
