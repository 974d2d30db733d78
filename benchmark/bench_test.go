package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"tightcps/internal/verify"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCatalog holds BENCHMARK.json to the catalog it is
// generated from (go run -C benchmark . -manifest) and to the limits of the
// benchmark contract.
func TestManifestMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with -manifest")
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q breaks the naming rule", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke scale with tracing on (a
// traced run alternates untraced and traced rounds, so it measures every
// metric of the workload) and checks what the driver and -compare rely on.
func TestSmokeWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			rr, spans, err := runWorkload(wl.Name, 7, 0, true, true, io.Discard, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if rr.Failed != 0 || rr.Attempted == 0 {
				t.Fatalf("%d of %d output checks failed", rr.Failed, rr.Attempted)
			}
			// runWorkload already rejects unknown and unmeasured metrics;
			// here: each applicable one is there with its unit, the rest
			// are absent, and the result line names every per-layer metric.
			for _, list := range [][]metricDef{endToEnd, perLayer} {
				for _, def := range list {
					r, ok := rr.Metrics[def.Name]
					if ok != def.on(wl.Name) {
						t.Errorf("%s: measured=%v, catalog says on=%v", def.Name, ok, def.on(wl.Name))
					}
					if ok && (r.Unit != def.Unit || r.Unit == "" || r.N < 1) {
						t.Errorf("%s: row %+v", def.Name, r)
					}
				}
			}
			for _, def := range endToEnd {
				if rr.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", def.Name, rr.Metrics[def.Name].Value)
				}
			}
			line := lineOf(rr)
			if !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(perLayer))
			}

			path := filepath.Join(t.TempDir(), "spans.json")
			if err := spans.writeFile(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var parsed []span
			if err := json.Unmarshal(data, &parsed); err != nil {
				t.Fatal(err)
			}
			if len(parsed) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for id, s := range parsed {
				if s.EndNs < s.StartNs || s.Parent >= id || s.Name == "" {
					t.Errorf("span %d malformed: %+v", id, s)
				}
				if self := spans.self(id); self < 0 {
					t.Errorf("span %d (%s): self time %v", id, s.Name, self)
				}
			}
		})
	}
}

// TestUntracedLine checks the other result line: an untraced run prints
// exactly the end-to-end metrics.
func TestUntracedLine(t *testing.T) {
	rr, spans, err := runWorkload(wlSlotVerify, 1, 0, false, true, io.Discard, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if spans != nil {
		t.Error("untraced run recorded spans")
	}
	line := lineOf(rr)
	if len(line.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, def := range endToEnd {
		if v := line.Metrics[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
			t.Errorf("%s: %+v", def.Name, v)
		}
	}
}

// TestCheckerRejectsWrongCount hands the checker a deliberately wrong
// expected state count: the op must count as failed and the run as
// incorrect.
func TestCheckerRejectsWrongCount(t *testing.T) {
	cs, err := loadSlotCases(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Slot(cs.small.profiles, cs.small.config(1))
	if err := cs.small.want.check(res, err, true); err != nil {
		t.Fatalf("the pinned answer must pass: %v", err)
	}
	wrong := cs.small.want
	wrong.states++
	e := &env{workload: wlSlotVerify, rec: newRecorder(), log: io.Discard}
	e.check("S2 seq", wrong.check(res, err, true))
	if e.failed != 1 || e.attempted != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1 and 1", e.attempted, e.failed)
	}
	if lineOf(runReport{Attempted: e.attempted, Failed: e.failed}).Correct {
		t.Error("a failed check must make the run incorrect")
	}
	if p, err := bfsProbe(cs.small.profiles, cs.small.config(1)); p.check(wrong, err) == nil {
		t.Error("the BFS probe accepted a wrong state count")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	tight := func(v float64) row { return row{Value: v, Q1: 0.99 * v, Q3: 1.01 * v, Min: 0.98 * v, Max: 1.02 * v} }
	loose := func(v float64) row { return row{Value: v, Q1: 0.9 * v, Q3: 1.1 * v, Min: 0.8 * v, Max: 1.2 * v} }
	for _, c := range []struct {
		def       metricDef
		base, cur row
		want      string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(120), "REGRESSED"},
		{lower, tight(100), tight(80), "improved"},
		{higher, tight(100), tight(80), "REGRESSED"},
		{higher, tight(100), tight(120), "improved"},
		{lower, loose(100), loose(105), "unresolved (spread 20%)"},
		{lower, loose(100), loose(200), "REGRESSED"}, // every sample worse
	} {
		if got := judge(c.def, c.base, c.cur); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %q, want %q", c.def.Better, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}
