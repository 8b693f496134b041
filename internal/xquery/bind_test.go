package xquery

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/markup"
	"repro/internal/xdm"
)

// TestLoopTuplesKeepTheirBindings: a loop binds its variables in place
// for each item, except where a tuple outlives its item — the tuples an
// order by sorts. Every tuple's return reads every variable it bound,
// after the sort as well as without one, through nested for clauses,
// positional variables, lets, quantifiers and the hash join's build
// clause.
func TestLoopTuplesKeepTheirBindings(t *testing.T) {
	e := New()
	tests := []struct {
		src, want string
		joins     int
	}{
		// Sorted: each tuple returns its own $a, $i, $b and $c after the
		// order by has reordered them.
		{`for $a at $i in (3, 1, 2), $b in ("x", "y") let $c := concat($a, $b)
		  order by $a descending, $b
		  return concat($i, ":", $a, $b, "=", $c)`,
			"1:3x=3x 1:3y=3y 3:2x=2x 3:2y=2y 2:1x=1x 2:1y=1y", 0},
		// The same nest unsorted, with an inner domain over the outer
		// variable and a where clause over both.
		{`for $a at $i in (3, 1, 2), $b in ($a, $a * 10) let $c := $a + $b
		  where $b ne 10
		  return concat($i, ":", $a, "+", $b, "=", $c)`,
			"1:3+3=6 1:3+30=33 2:1+1=2 3:2+2=4 3:2+20=22", 0},
		// A nested FLWOR in the return reads the outer variable for each
		// of its own items, sorted and not.
		{`for $a in (1, 2) return (for $b in (10, 20) order by $b descending return $a * $b)`,
			"20 10 40 20", 0},
		{`for $a in (1, 2) return (for $b in (10, 20) return $a * $b)`,
			"10 20 20 40", 0},
		// Quantifier variables, nested.
		{`for $a in (1, 2, 3) return (some $x in (1, 2, 3), $y in ($x, $a) satisfies $x + $y eq 2 * $a + 1)`,
			"true true false", 0},
		// The hash join's build clause, sorted and not.
		{`for $o in ("b", "a", "b") for $i in ("a", "b", "c") where $o eq $i
		  order by $o return concat($o, $i)`,
			"aa bb bb", 1},
		{`for $o at $n in ("b", "a", "b") for $i in ("a", "b", "c") where $o eq $i
		  return concat($n, $o, $i)`,
			"1bb 2aa 3bb", 1},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		if got := p.RewriteStats().Joins; got != tt.joins {
			t.Errorf("%q: %d joins detected, want %d", tt.src, got, tt.joins)
		}
		if value, _, _ := strings.Cut(runOutcome(t, p, "<r/>", RunConfig{}), " | "); value != tt.want {
			t.Errorf("%q: got %q, want %q", tt.src, value, tt.want)
		}
	}
}

// TestLoopCellsHoldTheirOwnItems: a loop hands each item to its body as
// a one-item sequence of its own — a cell of a chunk, or a slot of a
// domain that is a slice already — and never hands the same one out
// twice, so whatever keeps an item's binding past its turn keeps that
// item: an order by tuple, a positional variable, an assignment to a
// variable of the enclosing block. (The dialect has no inline
// functions, whose closures would be one more such keeper.)
func TestLoopCellsHoldTheirOwnItems(t *testing.T) {
	e := New()
	tests := []struct{ src, want string }{
		// Streamed domains: a range, a path, a sequence expression.
		{`for $i at $p in 1 to 5 order by $i descending return concat($p, ":", $i)`,
			"5:5 4:4 3:3 2:2 1:1"},
		{`for $x at $p in //x order by $p descending return concat($p, $x/@n)`,
			"3c 2b 1a"},
		{`for $a in (3, 1, 2), $b in ($a, $a * 10) order by $b return $b`,
			"1 2 3 10 20 30"},
		// A domain that is a slice: a variable's value.
		{`let $v := (3, 1, 2) for $i at $p in $v order by $i return concat($p, $i)`,
			"21 32 13"},
		// An assignment keeps one item's binding after the loop has moved
		// on to others, over a range and over a variable's value.
		{`{ declare variable $kept := ();
		    for $i in 1 to 5 return { if ($i eq 2) then set $kept := $i else (); };
		    $kept; }`, "2"},
		{`{ declare variable $kept := ();
		    declare variable $v := (10, 20, 30);
		    for $i at $p in $v return { if ($p eq 1) then set $kept := ($i, $p) else (); };
		    $kept; }`, "10 1"},
		{`{ declare variable $kept := ();
		    for $x in //x return { if ($x/@n eq "b") then set $kept := $x else (); };
		    string($kept/@n); }`, "b"},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		doc := `<r><x n="a"/><x n="b"/><x n="c"/></r>`
		if value, _, _ := strings.Cut(runOutcome(t, p, doc, RunConfig{}), " | "); value != tt.want {
			t.Errorf("%q: got %q, want %q", tt.src, value, tt.want)
		}
	}
}

// TestLoopCellsAllocatePerChunk: a streamed loop's cells come in chunks
// of up to 64, so 8,000 items cost about 110 allocations more than
// 1,000, not 7,000. Over a range each item above 255 also boxes its
// xs:integer, one allocation per item the loop does not add.
func TestLoopCellsAllocatePerChunk(t *testing.T) {
	e := New()
	allocs := func(q string, n int) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			b.WriteString("<x/>")
		}
		b.WriteString("</r>")
		doc, err := markup.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Compile(fmt.Sprintf(q, n))
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{ContextItem: xdm.NewNode(doc)}
		return testing.AllocsPerRun(5, func() {
			res, err := p.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Value[0].String(); got != fmt.Sprint(n) {
				t.Fatalf("%s = %s, want %d", q, got, n)
			}
		})
	}
	for _, c := range []struct {
		q       string
		perItem float64 // what each further item allocates besides its cell
	}{
		{`count(for $x in //x return $x) + 0 * %d`, 0},
		{`count(for $i in 1 to %d return $i)`, 1},
	} {
		small, large := allocs(c.q, 1000), allocs(c.q, 8000)
		if extra := large - small - 7000*c.perItem; extra > 7000/64+20 {
			t.Errorf("%s: %.0f allocations at n = 1,000, %.0f at 8,000: %.0f more than %.0f per item, want at most a chunk of cells per 64 items", c.q, small, large, extra, c.perItem)
		}
	}
}
