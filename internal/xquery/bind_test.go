package xquery

import (
	"strings"
	"testing"
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
