package xquery

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/lexer"
)

// raceEnabled is set under -race (race_test.go), where timings say
// nothing about the code under test.
var raceEnabled bool

// scalingRows are the shapes of the scaling gate. Each row's prepare
// builds its input at size n and returns the work to time. None of the
// rows has a deterministic count that grows with the cost it guards
// (the sibling lookups, the pending-list checks and the newlines
// counted all run inside calls no counter sees), so every row times
// its work and skips under -race.
var scalingRows = []struct {
	name    string
	n       int
	prepare func(tb testing.TB, n int) func() error
}{
	{"preceding-sibling::x[1]", 250, flatPageQuery(`count(//x[preceding-sibling::x[1]/@k = "3"])`)},
	{"following-sibling::x[1]", 250, flatPageQuery(`count(//x[following-sibling::x[1]/@k = "3"])`)},
	{"following::x[1] (control)", 250, flatPageQuery(`count(//x[following::x[1]/@k = "3"])`)},
	{"copy-modify renaming n nodes", 2000, func(tb testing.TB, n int) func() error {
		p := New().MustCompile(fmt.Sprintf(`copy $c := <r>{for $i in 1 to %d return <x/>}</r>
			modify (for $x in $c/x return rename node $x as "y") return count($c/y)`, n))
		return func() error {
			_, err := p.Run(RunConfig{})
			return err
		}
	}},
	{"lexer Line/Col over a long module", 2000, func(tb testing.TB, n int) func() error {
		src := strings.Repeat("declare variable $v := (1, \"a\");\n", n) + "$v"
		return func() error {
			l := lexer.New(src)
			for l.Next().Kind != lexer.EOF {
			}
			return l.Err()
		}
	}},
}

// flatPageQuery runs q over a page of n sibling x elements.
func flatPageQuery(q string) func(tb testing.TB, n int) func() error {
	return func(tb testing.TB, n int) func() error {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<x k="%d"/>`, i%10)
		}
		b.WriteString("</r>")
		d, err := markup.Parse(b.String())
		if err != nil {
			tb.Fatal(err)
		}
		p := New().MustCompile(q)
		return func() error {
			_, err := p.Run(RunConfig{ContextItem: xdm.NewNode(d)})
			return err
		}
	}
}

// TestScalingGate runs every row at n and 8n, the best of three
// timings each, and fails a row whose time grows by more than 24×:
// n log n reads about 11 at these sizes, quadratic 64.
func TestScalingGate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing rows skip under -race")
	}
	for _, r := range scalingRows {
		small, large := bestOf3(t, r.prepare(t, r.n)), bestOf3(t, r.prepare(t, 8*r.n))
		ratio := float64(large) / float64(small)
		t.Logf("%s: %v at %d, %v at %d, ×%.1f", r.name, small, r.n, large, 8*r.n, ratio)
		if ratio > 24 {
			t.Errorf("%s grows ×%.1f from %d to %d (%v → %v); the gate allows ×24", r.name, ratio, r.n, 8*r.n, small, large)
		}
	}
}

// bestOf3 returns the shortest of three runs of work. The collector
// is off while a run is timed, and collects before it: what a run's
// garbage costs depends on the heap the runs before it left, not on
// the code under test.
func bestOf3(tb testing.TB, work func() error) time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		if err := work(); err != nil {
			tb.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best
}
