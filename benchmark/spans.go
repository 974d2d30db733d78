package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent is the
// index of the span that caused it (-1 for an op's root); Op groups the
// spans of one benchmark operation.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// spanRec keeps the spans of a traced run in memory until the run ends. A
// nil *spanRec records nothing and reads no clock, so one code path serves
// the traced and the untraced op.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *spanRec) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// get returns a copy of one finished span.
func (r *spanRec) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// children returns the spans whose parent is id.
func (r *spanRec) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// covered is the part of span id's interval that its child spans cover, in
// seconds. Children may overlap (parallel stages), so it is the length of
// the union of their intervals, clipped to the parent.
func (r *spanRec) covered(id int) float64 {
	p := r.get(id)
	kids := r.children(id)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, hi int64
	hi = p.StartNs
	for _, k := range kids {
		lo, end := max(k.StartNs, hi), min(k.EndNs, p.EndNs)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return float64(total) / 1e9
}

// self is a span's duration minus the part its children cover.
func (r *spanRec) self(id int) float64 { return r.get(id).dur() - r.covered(id) }

// sumChildren adds up the durations of id's children named name, and
// reports how many there were and the longest.
func (r *spanRec) sumChildren(id int, name string) (total, longest float64, n int) {
	for _, k := range r.children(id) {
		if k.Name == name {
			d := k.dur()
			total += d
			longest = max(longest, d)
			n++
		}
	}
	return total, longest, n
}

func (r *spanRec) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
