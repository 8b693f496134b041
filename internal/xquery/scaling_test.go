package xquery

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/lexer"
	xqruntime "repro/internal/xquery/runtime"
)

// raceEnabled is set under -race (race_test.go), where timings say
// nothing about the code under test.
var raceEnabled bool

// scalingRows are the shapes of the scaling gate. Each row's prepare
// builds its input at size n and returns the work to time; a row whose
// cost shows in a deterministic count returns that count instead
// (count), which cannot flake and also runs under -race. The sibling
// lookups, the pending-list checks and the newlines counted run inside
// calls no counter sees, so those rows time their work.
var scalingRows = []struct {
	name    string
	n       int
	prepare func(tb testing.TB, n int) func() error // timed, best of three; skipped under -race
	count   func(tb testing.TB, n int) int64
}{
	{name: "preceding-sibling::x[1]", n: 250, prepare: flatPageQuery(`count(//x[preceding-sibling::x[1]/@k = "3"])`, false)},
	{name: "following-sibling::x[1]", n: 250, prepare: flatPageQuery(`count(//x[following-sibling::x[1]/@k = "3"])`, false)},
	{name: "following::x[1] (control)", n: 250, prepare: flatPageQuery(`count(//x[following::x[1]/@k = "3"])`, false)},
	// Without indexes nothing else labels the page: the walkers must.
	{name: "preceding-sibling::x[1], indexes off", n: 4000,
		prepare: flatPageQuery(`count(//x[preceding-sibling::x[1]/@k = "3"])`, true)},
	{name: "following-sibling::x[1], indexes off", n: 4000,
		prepare: flatPageQuery(`count(//x[following-sibling::x[1]/@k = "3"])`, true)},
	// One sibling step after each mutation: a scan of one short child
	// list, not a relabel of the whole page per step.
	{name: "mutate then one sibling step, n times", n: 1000, prepare: func(tb testing.TB, n int) func() error {
		p := New().MustCompile(fmt.Sprintf(`{ declare variable $page := <r>{for $i in 1 to %d return <s><x/><x/></s>}</r>;
			for $s in $page/s return { insert node <y/> into $s; count($s/x[1]/following-sibling::*[1]) } }`, n))
		return func() error {
			_, err := p.Run(RunConfig{})
			return err
		}
	}},
	// The same loop with a sibling step that yields three nodes: one
	// walker's output is already in document order, so the step sorts
	// nothing and the page is not relabeled after each insert.
	{name: "mutate then a three-node sibling step, n times", n: 1000, prepare: func(tb testing.TB, n int) func() error {
		p := New().MustCompile(fmt.Sprintf(`{ declare variable $page := <r>{for $i in 1 to %d return <s><x/><x/><x/></s>}</r>;
			for $s in $page/s return { insert node <y/> into $s; count($s/x[1]/following-sibling::*) } }`, n))
		return func() error {
			_, err := p.Run(RunConfig{})
			return err
		}
	}},
	{name: "<w>{//x}</w>", n: 1000, prepare: flatPageQuery(`count(<w>{//x}</w>/x)`, false)},
	{name: "copy-modify renaming n nodes", n: 2000, prepare: copyModify(`rename node $x as "y"`)},
	{name: "copy-modify inserting into n nodes", n: 2000, prepare: copyModify(`insert node <y/> into $x`)},
	{name: "lexer Line/Col over a long module", n: 2000, prepare: func(tb testing.TB, n int) func() error {
		src := strings.Repeat("declare variable $v := (1, \"a\");\n", n) + "$v"
		return func() error {
			l := lexer.New(src)
			for l.Next().Kind != lexer.EOF {
			}
			return l.Err()
		}
	}},
	// A computed key reads nothing of the candidate, so it is read once
	// per step evaluation and probes the id map: one concat per step,
	// not one per element of the page.
	{name: "n/5 computed id keys over n elements (FuncCall evaluations)", n: 1000, count: func(tb testing.TB, n int) int64 {
		prof := xqruntime.NewProfiler()
		q := fmt.Sprintf(`count(for $i in 1 to %d return //x[@id = concat("i", $i)])`, n/5)
		res, err := New().MustCompile(q).Run(RunConfig{ContextItem: xdm.NewNode(flatPage(tb, n)), Profiler: prof})
		if err != nil {
			tb.Fatal(err)
		}
		if got := FormatSequence(res.Value, nil); got != fmt.Sprint(n/5) {
			tb.Fatalf("%s = %s, want %d", q, got, n/5)
		}
		for _, e := range prof.Entries() {
			if e.Kind == "FuncCall" {
				return e.Count
			}
		}
		return 0
	}},
}

// flatPage parses a page of n sibling x elements with distinct ids.
func flatPage(tb testing.TB, n int) *dom.Node {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<x id="i%d" k="%d"/>`, i, i%10)
	}
	b.WriteString("</r>")
	d, err := markup.Parse(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// flatPageQuery runs q over a flat page, with the indexes on or off.
func flatPageQuery(q string, noIndex bool) func(tb testing.TB, n int) func() error {
	return func(tb testing.TB, n int) func() error {
		d, p := flatPage(tb, n), New().MustCompile(q)
		return func() error {
			_, err := p.Run(RunConfig{ContextItem: xdm.NewNode(d), DisableIndexes: noIndex})
			return err
		}
	}
}

// copyModify applies update, over $x, to each of n children of a copy.
func copyModify(update string) func(tb testing.TB, n int) func() error {
	return func(tb testing.TB, n int) func() error {
		p := New().MustCompile(fmt.Sprintf(`copy $c := <r>{for $i in 1 to %d return <x/>}</r>
			modify (for $x in $c/x return %s) return count($c/*)`, n, update))
		return func() error {
			_, err := p.Run(RunConfig{})
			return err
		}
	}
}

// TestScalingGate runs every row at n and 8n and fails a row whose
// cost grows by more than 24×: n log n reads about 11 at these sizes,
// quadratic 64. A timed row takes the best of three timings each.
func TestScalingGate(t *testing.T) {
	for _, r := range scalingRows {
		t.Run(r.name, func(t *testing.T) {
			var small, large float64
			switch {
			case r.count != nil:
				small, large = float64(r.count(t, r.n)), float64(r.count(t, 8*r.n))
			case raceEnabled:
				t.Skip("timing rows skip under -race")
			default:
				small, large = float64(bestOf3(t, r.prepare(t, r.n))), float64(bestOf3(t, r.prepare(t, 8*r.n)))
			}
			show := func(v float64) any { return time.Duration(v) }
			if r.count != nil {
				show = func(v float64) any { return int64(v) }
			}
			ratio := large / small
			t.Logf("%v at %d, %v at %d, ×%.1f", show(small), r.n, show(large), 8*r.n, ratio)
			if ratio > 24 {
				t.Errorf("grows ×%.1f from %d to %d (%v → %v); the gate allows ×24", ratio, r.n, 8*r.n, show(small), show(large))
			}
		})
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
