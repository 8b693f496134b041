// Package experiments regenerates every figure and quantified claim of
// the paper's evaluation (see DESIGN.md §4 for the experiment index).
// cmd/experiments prints the tables; bench_test.go at the repository
// root exposes the same workloads as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's paper-shaped output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one experiment: the ID of the table it produces and the
// function that produces it.
type Experiment struct {
	ID  string
	Run func() (Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1Pipeline},
		{"E2", E2Offloading},
		{"E3", E3Mashup},
		{"E4", E4LinesOfCode},
		{"E5", E5Performance},
		{"E5b", E5EarlyExit},
		{"E6", E6Async},
		{"E7", E7Security},
		{"E8", E8EventRegistration},
		{"E9", E9EndpointGranularity},
	}
}

// MeasureNsPerOp times f until it has run at least minIters times and
// for at least minTime, returning the mean ns/op.
func MeasureNsPerOp(f func() error, minIters int, minTime time.Duration) (float64, error) {
	start := time.Now()
	iters := 0
	for iters < minIters || time.Since(start) < minTime {
		if err := f(); err != nil {
			return 0, err
		}
		iters++
		if iters > 1_000_000 {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

func ns(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

func dur(d time.Duration) string { return ns(float64(d.Nanoseconds())) }
