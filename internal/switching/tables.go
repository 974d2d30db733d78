package switching

import (
	"fmt"
	"math"
	"sort"
)

// RLETable is a run-length-encoded dwell-time table. The paper notes that
// Tdw− and Tdw+ take only a few distinct values, so storing (length, value)
// runs is the memory-efficient representation it suggests for in-ECU use.
type RLETable struct {
	Runs []RLERun
}

// RLERun is one run of equal table entries.
type RLERun struct {
	Len   int
	Value int
}

// EncodeRLE compresses a dwell table.
func EncodeRLE(table []int) RLETable {
	var out RLETable
	for _, v := range table {
		if n := len(out.Runs); n > 0 && out.Runs[n-1].Value == v {
			out.Runs[n-1].Len++
			continue
		}
		out.Runs = append(out.Runs, RLERun{Len: 1, Value: v})
	}
	return out
}

// Decode expands the table back to a flat slice.
func (t RLETable) Decode() []int {
	var out []int
	for _, r := range t.Runs {
		for i := 0; i < r.Len; i++ {
			out = append(out, r.Value)
		}
	}
	return out
}

// Len returns the decoded length.
func (t RLETable) Len() int {
	n := 0
	for _, r := range t.Runs {
		n += r.Len
	}
	return n
}

// At returns entry i without decoding.
func (t RLETable) At(i int) int {
	for _, r := range t.Runs {
		if i < r.Len {
			return r.Value
		}
		i -= r.Len
	}
	panic(fmt.Sprintf("switching: RLE index %d out of range", i))
}

// Words returns the number of (len, value) pairs — the storage cost the
// paper's memory/conservativeness trade-off discussion is about.
func (t RLETable) Words() int { return len(t.Runs) }

// SurfacePoint is one (Tw, Tdw) → J sample of the Fig. 3 surface.
type SurfacePoint struct {
	Tw, Tdw int
	J       int     // settling time in samples (MaxInt32 if unsettled)
	JSec    float64 // settling time in seconds
}

// Surface computes the settling time for every switching combination
// Tw ∈ [0, twMax], Tdw ∈ [0, dwMax] — the data behind Fig. 3. Points that
// do not settle within the horizon carry J = MaxInt32 and JSec = +Inf.
func Surface(p Plant, twMax, dwMax int, cfg Config) []SurfacePoint {
	w := newSweeper(p, cfg.withDefaults(p.JStar))
	out := make([]SurfacePoint, 0, (twMax+1)*(dwMax+1))
	for tw := 0; tw <= twMax; tw++ {
		w.waitTo(tw)
		for d := 0; d <= dwMax; d++ {
			w.dwellTo(d)
			j, ok := w.settle()
			pt := SurfacePoint{Tw: tw, Tdw: d, J: j}
			if !ok {
				pt.J = math.MaxInt32
				pt.JSec = math.Inf(1)
			} else {
				pt.JSec = float64(j) * p.Sys.H
			}
			out = append(out, pt)
		}
	}
	return out
}

// SurfaceStats summarises a surface for quick comparisons: the worst and
// best settling times over the sampled region (ignoring unsettled points).
func SurfaceStats(pts []SurfacePoint) (minJ, maxJ int, unsettled int) {
	minJ, maxJ = math.MaxInt32, 0
	for _, p := range pts {
		if p.J == math.MaxInt32 {
			unsettled++
			continue
		}
		if p.J < minJ {
			minJ = p.J
		}
		if p.J > maxJ {
			maxJ = p.J
		}
	}
	return minJ, maxJ, unsettled
}

// DistinctValues returns the sorted distinct entries of a dwell table —
// the paper's observation that the tables take "only a few values".
func DistinctValues(table []int) []int {
	seen := map[int]bool{}
	for _, v := range table {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
