// Package textplot renders small ASCII line plots and tables so the cmd
// tools can display the paper's figures in a terminal.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series.
type Series struct {
	Name string
	Y    []float64
}

// Options sizes a plot.
type Options struct {
	Height int // rows (default 18)
}

// plotWidth is the number of columns of a plot area.
const plotWidth = 70

var markers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Lines renders the series over a common x-index as an ASCII chart.
func Lines(series []Series, opt Options) string {
	if opt.Height <= 0 {
		opt.Height = 18
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
		for _, v := range s.Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if maxLen == 0 {
		return "(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i, v := range s.Y {
			c := 0
			if maxLen > 1 {
				c = i * (plotWidth - 1) / (maxLen - 1)
			}
			r := int(math.Round((hi - v) / (hi - lo) * float64(opt.Height-1)))
			if r >= 0 && r < opt.Height && c >= 0 && c < plotWidth {
				grid[r][c] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.3g ┤\n", hi)
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.3g ┼%s\n", lo, strings.Repeat("─", plotWidth))
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%11s%s\n", "", strings.Join(legend, "   "))
	return b.String()
}

// Table renders rows with a header, columns padded to equal width.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("─", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Occupancy renders a slot-occupancy timeline: one lane per application,
// '█' where the application holds the slot.
func Occupancy(names []string, occ []int) string {
	var b strings.Builder
	for i, n := range names {
		fmt.Fprintf(&b, "%-4s ", n)
		for _, holder := range occ {
			if holder == i {
				b.WriteString("█")
			} else {
				b.WriteString("·")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// IntsCSV renders an int slice compactly, e.g. "[3 4 3 3]".
func IntsCSV(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
