package textplot

import (
	"strings"
	"testing"
)

func TestLinesBasic(t *testing.T) {
	out := Lines([]Series{
		{Name: "a", Y: []float64{0, 1, 0.5, 0.2}},
		{Name: "b", Y: []float64{1, 0.5, 0.25, 0.1}},
	}, Options{Height: 10})
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("markers missing:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 12 {
		t.Fatalf("plot too short:\n%s", out)
	}
}

func TestLinesEmptyAndFlat(t *testing.T) {
	if out := Lines(nil, Options{}); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %q", out)
	}
	// A constant series must not divide by zero.
	out := Lines([]Series{{Name: "c", Y: []float64{2, 2, 2}}}, Options{Height: 4})
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series unplotted:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"App", "J*"}, [][]string{{"C1", "18"}, {"C2-long", "25"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows misaligned:\n%s", out)
	}
	if !strings.Contains(lines[0], "App") || !strings.Contains(lines[3], "C2-long") {
		t.Fatalf("content missing:\n%s", out)
	}
}

func TestOccupancy(t *testing.T) {
	out := Occupancy([]string{"C1", "C2"}, []int{0, 0, -1, 1})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lanes = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "C1") || strings.Count(lines[0], "█") != 2 {
		t.Fatalf("lane 0 wrong: %q", lines[0])
	}
	if strings.Count(lines[1], "█") != 1 {
		t.Fatalf("lane 1 wrong: %q", lines[1])
	}
}

func TestIntsCSV(t *testing.T) {
	if got := IntsCSV([]int{3, 4, 5}); got != "[3 4 5]" {
		t.Fatalf("IntsCSV = %q", got)
	}
	if got := IntsCSV(nil); got != "[]" {
		t.Fatalf("IntsCSV(nil) = %q", got)
	}
}
