package xquery

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// evalLazy runs a query and renders its value. Laziness is observable
// wherever no update can apply mid-loop: the planner lets such loops
// stream their domains.
func evalLazy(t *testing.T, src string, doc string) (string, error) {
	t.Helper()
	e := New()
	p, err := e.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	cfg := RunConfig{}
	if doc != "" {
		d, err := markup.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ContextItem = xdm.NewNode(d)
	}
	res, err := p.Run(cfg)
	if err != nil {
		return "", err
	}
	return FormatSequence(res.Value, markup.AppendXML), nil
}

func mustLazy(t *testing.T, src, doc string) string {
	t.Helper()
	out, err := evalLazy(t, src, doc)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return out
}

// TestLazyErrorBeyondEarlyExit: once the answer of an early-exiting
// consumer is decided, errors lurking in the unpulled remainder of the
// sequence must not surface.
func TestLazyErrorBeyondEarlyExit(t *testing.T) {
	cases := []struct{ query, want string }{
		{`(1, fn:error())[1]`, "1"},
		{`fn:exists((1, fn:error()))`, "true"},
		{`fn:empty(("x", fn:error()))`, "false"},
		{`fn:head((42, fn:error()))`, "42"},
		{`fn:zero-or-one((42))`, "42"},
		{`fn:subsequence((1, 2, fn:error()), 1, 2)`, "1 2"},
		{`some $x in (1, 2, fn:error()) satisfies $x = 2`, "true"},
		{`every $x in (1, fn:error()) satisfies $x > 10`, "false"},
		{`(1, fn:error()) = 1`, "true"},
		// EBV short-circuits only on a node-first sequence; with an
		// atomic first item, pulling a second is spec-required (to
		// raise the two-atomics type error), so no laziness there.
		{`if ((<x/>, fn:error())) then "t" else "f"`, "t"},
		{`(1 to 9000000)[3]`, "3"},
		{`fn:boolean((<x/>, fn:error()))`, "true"},
	}
	for _, c := range cases {
		if got := mustLazy(t, c.query, ""); got != c.want {
			t.Errorf("%s = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestLazyErrorBeforeEarlyExit: errors inside the pulled prefix still
// surface.
func TestLazyErrorBeforeEarlyExit(t *testing.T) {
	for _, q := range []string{
		`fn:exists((fn:error(), 1))`,
		`(fn:error(), 1)[1]`,
		`some $x in (fn:error(), 1) satisfies $x = 1`,
	} {
		if _, err := evalLazy(t, q, ""); err == nil {
			t.Errorf("%s: expected an error", q)
		}
	}
}

// TestStreamingPositionLast: position() and last() semantics are
// unchanged under the streaming evaluator, including the cases that
// force materialization (last()) and the //x[1] per-parent rule.
func TestStreamingPositionLast(t *testing.T) {
	cases := []struct{ query, want string }{
		{`(//book)[1]/@id/string()`, "b1"},
		{`(//book)[last()]/@id/string()`, "b3"},
		{`(//book)[position() < 3]/@id/string()`, "b1 b2"},
		{`(//book)[position() = last()]/@id/string()`, "b3"},
		// //author[1] is "authors that are the first author child of
		// their parent", not the first author in the document.
		{`//author[1]/string()`, "Knuth Gamma O'Sullivan"},
		{`(//author)[1]/string()`, "Knuth"},
		{`//book[last()]/@id/string()`, "b3"},
		{`//book[2]/author[2]/string()`, "Helm"},
		// Predicate stages re-count positions stage by stage.
		{`string((10, 20, 30, 40, 50)[position() >= 2][2])`, "30"},
		// Reverse axes count positions in proximity order.
		{`(//author)[last()]/ancestor::*[1]/local-name()`, "book"},
		{`count(//book[position() > 1])`, "2"},
		// Streamed descendant rewrite keeps boolean predicates.
		{`//book[author = "Knuth"]/@id/string()`, "b1"},
		{`count(//*)`, "14"},
	}
	for _, c := range cases {
		if got := mustLazy(t, c.query, libraryXML); got != c.want {
			t.Errorf("%s = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestStreamingMatchesEagerBaseline pins a mixed query battery to the
// answers a fully materializing evaluation gives: the streaming
// pipeline is an optimization, never a semantics change.
func TestStreamingMatchesEagerBaseline(t *testing.T) {
	cases := []struct{ query, want string }{
		{`for $b in //book order by number($b/price) return $b/@id/string()`, "b3 b2 b1"},
		{`//book[price > 50]/title/string()`, "The Art of Computer Programming Design Patterns"},
		{`count(//book/author)`, "4"},
		{`(//book/title)[2]/string()`, "Design Patterns"},
		{`string-join(for $a in //author return $a/string(), "|")`, "Knuth|Gamma|Helm|O'Sullivan"},
		{`//book/@year/string()`, "2005 1994 2008"},
		{`(//book, //book)[3]/@id/string()`, "b3"},
		{`//book[not(author = "Knuth")][1]/@id/string()`, "b2"},
		{`sum(for $i in 1 to 100 return $i)`, "5050"},
	}
	for _, c := range cases {
		if got := mustLazy(t, c.query, libraryXML); got != c.want {
			t.Errorf("%s = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestSubsequenceWindows: fn:subsequence selects the positions p with
// round(start) <= p < round(start) + round(length), compared as
// doubles, so an empty start or length and a NaN bound select nothing.
func TestSubsequenceWindows(t *testing.T) {
	cases := []struct{ query, want string }{
		{`subsequence((1, 2, 3), ())`, ""},
		{`subsequence((1, 2, 3), 1, ())`, ""},
		// The F&O example: -INF + INF is NaN, and no position is below it.
		{`subsequence((1, 2, 3), xs:double("-INF"), xs:double("INF"))`, ""},
		{`subsequence((1, 2, 3), xs:double("-INF"))`, "1 2 3"},
		{`subsequence((1, 2, 3), xs:double("NaN"))`, ""},
		{`subsequence((1, 2, 3), 2, xs:double("INF"))`, "2 3"},
		{`subsequence((1, 2, 3, 4, 5), 0, 3)`, "1 2"},
		{`subsequence((1, 2, 3, 4, 5), 3)`, "3 4 5"},
		{`subsequence((1, 2, 3, 4, 5), 3, 2)`, "3 4"},
		{`subsequence((1, 2, 3, 4, 5), 1.5, 1.4)`, "2"},
	}
	for _, c := range cases {
		got, err := evalLazy(t, c.query, "")
		if err != nil || got != c.want {
			t.Errorf("%s = %q, %v; want %q", c.query, got, err, c.want)
		}
	}
	// Through the cache, which quarantines a program after
	// QuarantineThreshold internal errors in a row: the empty start is
	// an answer, not a crash.
	c, e := NewCache(8), New()
	for i := 0; i <= QuarantineThreshold; i++ {
		res, err := c.EvalQuery(e, cases[0].query, RunConfig{})
		if err != nil || len(res.Value) != 0 {
			t.Fatalf("call %d: %v, %v; want the empty sequence", i+1, res, err)
		}
	}
}

// TestRangeIsChargedOnEveryRoute: a range costs one budget step per
// integer whether it is streamed, materialized for a function argument
// or bound to a variable.
func TestRangeIsChargedOnEveryRoute(t *testing.T) {
	e := New()
	for _, q := range []string{
		`count(1 to 9000000)`,
		`sum(1 to 9000000)`,
		`let $r := 1 to 9000000 return 1`,
		`for $i in 1 to 9000000 return 1`,
	} {
		if _, err := e.MustCompile(q).Run(RunConfig{MaxSteps: 1000}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", q, err)
		}
	}
	// Inside the budget, a materialized range is whole.
	if got := mustLazy(t, `let $r := 1 to 5 return (count($r), sum($r))`, ""); got != "5 15" {
		t.Errorf("a bound range = %q, want 5 15", got)
	}
}

// TestUpdateSnapshotSemanticsUnderStreaming: the pending update list
// still applies only at the end of a (non-sequential) run — the query
// itself observes the pre-update snapshot.
func TestUpdateSnapshotSemanticsUnderStreaming(t *testing.T) {
	e := New()
	p, err := e.Compile(`(insert node <new/> into /library, count(//new))`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := markup.Parse(`<library><book/></library>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(d)})
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatSequence(res.Value, markup.AppendXML); got != "0" {
		t.Errorf("count(//new) during the run = %q, want 0 (snapshot)", got)
	}
	if res.Updates != 1 {
		t.Errorf("applied updates = %d, want 1", res.Updates)
	}
	if !strings.Contains(markup.Serialize(d), "<new") {
		t.Errorf("insert was not applied at end of run: %s", markup.Serialize(d))
	}
}

// TestProfilerProvesEarlyExit: the items-pulled counter shows that
// fn:exists stopped after one item even though the path ranges over
// the whole document.
func TestProfilerProvesEarlyExit(t *testing.T) {
	e := New()
	p, err := e.Compile(`fn:exists(//book)`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := markup.Parse(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	prof := runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(d), Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if n := prof.ItemsFor("Path"); n < 1 || n > 2 {
		t.Errorf("items pulled through Path = %d, want 1 (early exit); profile:\n%s", n, prof.Format())
	}
	if !strings.Contains(prof.Format(), "items") {
		t.Errorf("profile format lacks items column:\n%s", prof.Format())
	}
}

// TestQueryBudgetSteps: a run exceeding MaxSteps fails with
// ErrBudgetExceeded.
func TestQueryBudgetSteps(t *testing.T) {
	e := New()
	p, err := e.Compile(`count((1 to 1000000)[. mod 7 = 0])`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunConfig{MaxSteps: 1000}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	// The same query inside the budget succeeds.
	if _, err := p.Run(RunConfig{MaxSteps: 100_000_000}); err != nil {
		t.Errorf("within budget: %v", err)
	}
	// No budget configured: unlimited.
	if _, err := p.Run(RunConfig{}); err != nil {
		t.Errorf("no budget: %v", err)
	}
}

// TestQueryBudgetTimeout: a run exceeding its wall-clock budget fails
// with ErrBudgetExceeded.
func TestQueryBudgetTimeout(t *testing.T) {
	e := New()
	p, err := e.Compile(`count((1 to 9000000)[. mod 3 = 0])`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunConfig{Timeout: 2 * time.Millisecond}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetCoversPureTreeWalks: budget steps are consumed by the
// streaming tree walk itself, not only by expression evaluations, so a
// query that walks a large document inside a single path expression
// still trips.
func TestBudgetCoversPureTreeWalks(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		b.WriteString("<item/>")
	}
	b.WriteString("</root>")
	d, err := markup.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	p, err := e.Compile(`count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(d), MaxSteps: 100}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestStepAllocsIndependentOfFocusCount: one evaluation of an axis
// step allocates its stream — the cursor, node test and budget filter
// it resets for each focus node — once, so count(//x/y) allocates as
// much under 8,000 x as under 1,000, give or take the doublings of a
// sorted stage's buffers, scanned or probed, and so does a
// step with a natively tested key. (Before, every focus node cost a
// candidate closure and an axis walker, and a keyed step its predicate
// stage too.)
func TestStepAllocsIndependentOfFocusCount(t *testing.T) {
	e := New()
	allocs := func(q string, n int, noIndex bool) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<x><y a="%d"/><z/></x>`, i%3)
		}
		b.WriteString("</r>")
		doc, err := markup.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{ContextItem: xdm.NewNode(doc), DisableIndexes: noIndex}
		return testing.AllocsPerRun(5, func() {
			res, err := p.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Value) != 1 {
				t.Fatalf("%s: %d items", q, len(res.Value))
			}
		})
	}
	for _, c := range []struct {
		q       string
		noIndex bool
		// perCandidate, where set, bounds the allocations per candidate
		// (a y, or the x a filter step maps): the predicate or the
		// primary is evaluated per candidate, which allocates per
		// candidate.
		perCandidate float64
	}{
		{`count(//x/y)`, false, 0},
		{`count(//x/y)`, true, 0},
		{`count(/r/x/*/@a)`, false, 0},
		{`count(/r/x/*/@a)`, true, 0},
		// The kernel tests the key natively; under DisableIndexes the
		// predicate stage evaluates it in one focus frame it sets per
		// candidate.
		{`count(//x/y[@a = "1"])`, false, 0},
		{`count(//x/y[@a = "1"])`, true, 4.5},
		// A filter step evaluates its primary per x in one focus frame it
		// sets per x: 2.0 and 3.0 allocations an x, where a Context copy
		// per x made them 3.0 and 4.0.
		{`count(/r/x/(y))`, false, 2.05},
		{`count(/r/x/string(@a))`, false, 3.05},
	} {
		// //x/y sorts its x in a sorted stage (descendant output
		// overlaps), whose appended buffers double a few more times.
		small, large := allocs(c.q, 1000, c.noIndex), allocs(c.q, 8000, c.noIndex)
		switch {
		case c.perCandidate > 0:
			if small/1000 > c.perCandidate || large/8000 > c.perCandidate {
				t.Errorf("%s noIndex=%v: %.2f allocations a candidate over 1,000 x, %.2f over 8,000, want at most %.1f",
					c.q, c.noIndex, small/1000, large/8000, c.perCandidate)
			}
		case large > small+20:
			t.Errorf("%s noIndex=%v: %.0f allocations over 1,000 x, %.0f over 8,000", c.q, c.noIndex, small, large)
		}
	}
}
