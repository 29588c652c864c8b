// Package bench is the benchmark harness that regenerates the paper's
// evaluation (Section 6): Figure 6 (TPC-W WIPS vs RBE count under
// payment-tier replication), Figure 7 (replica scalability with null
// requests), Figure 8 (effect of non-zero processing time), and Figure 9
// (effect of asynchronous messaging). Each runner returns a Figure whose
// series mirror the paper's plots; cmd/perpetualctl prints them.
//
// Absolute numbers differ from the paper (their testbed was a cluster of
// 2 GHz Opterons on gigabit Ethernet; this harness runs every replica
// in one process), but the comparison shapes — who wins, how overhead
// decays with processing time, how asynchrony multiplies throughput —
// are what the runners reproduce. The repo's performance instrument is
// the benchmark/ module; this package carries only the paper's figures.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Point is one measured (x, y) pair.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced evaluation figure.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a point to the named series, creating it if needed.
func (f *Figure) Add(label string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].Points = append(f.Series[i].Points, Point{X: x, Y: y})
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, Points: []Point{{X: x, Y: y}}})
}

// Format renders the figure as an aligned text table: one row per x
// value, one column per series.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "(x: %s, y: %s)\n", f.XLabel, f.YLabel)

	// Collect the x values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12.4g", x)
		for _, s := range f.Series {
			y, ok := s.lookup(x)
			if ok {
				fmt.Fprintf(&b, " %16.4g", y)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *Series) lookup(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Throughput converts a count and duration to operations per second.
func Throughput(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
