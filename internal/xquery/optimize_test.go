package xquery

import (
	"strings"
	"testing"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// TestOptimizerRewriteStats pins which algebraic rewrites fire on
// representative shapes: the stats the profiler and EXPERIMENTS.md
// report come straight from here.
func TestOptimizerRewriteStats(t *testing.T) {
	e := New()
	tests := []struct {
		src                             string
		folds, pushdowns, hoists, joins int
	}{
		// 1+2*3 folds; the where conjunct referencing only $b pushes
		// into the path predicate; count(//book) hoists; id-eq join.
		{`1 + 2 * 3`, 1, 0, 0, 0},
		{`for $b in //book where $b/price > 50 return $b/title`, 0, 1, 0, 0},
		{`for $b in //book let $n := count(//author) return $n`, 0, 0, 1, 0},
		{`for $b in //book where count(//author) > 2 return $b/@id`, 0, 0, 1, 0},
		{`for $a in //book for $b in //book where $a/@id eq $b/@id return $a`, 0, 0, 0, 1},
		{`for $a in //book for $b in //book where $a/@year = $b/@year return $a`, 0, 0, 0, 1},
		// Join wins over pushdown for the leading conjunct; the residual
		// conjunct stays in the where clause (no pushdown after a join —
		// domain iteration order must keep matching the nested loop).
		{`for $a in //book for $b in //book where $a/@id eq $b/@id and $b/price > 5 return $b`, 0, 0, 0, 1},
		// A conjunct over the outer variable still pushes into the last
		// clause's path (it evaluates once per candidate node either
		// way); the correlated domain rules out a join.
		{`for $a in //book for $b in $a/author where $a/price > 5 return $b`, 0, 1, 0, 0},
		// A zero-arg context-defaulting builtin reads the outer focus:
		// pushing it into the path would rebind its implicit context
		// item to each candidate node, so no pushdown may fire.
		{`for $x in //* where local-name() = "book" return 1`, 0, 0, 0, 0},
		{`for $b in //book where string-length() > 1 return $b/@id`, 0, 0, 0, 0},
		// The same builtin with the context made explicit moves freely.
		{`for $b in //book where string($b/@id) = "b2" return 1`, 0, 1, 0, 0},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		st := p.RewriteStats()
		if st.Folds < tt.folds || st.Pushdowns != tt.pushdowns || st.Hoists < tt.hoists || st.Joins != tt.joins {
			t.Errorf("%q: stats %+v, want folds>=%d pushdowns=%d hoists>=%d joins=%d",
				tt.src, st, tt.folds, tt.pushdowns, tt.hoists, tt.joins)
		}
	}
}

// joinXML gives the hash join empty key groups (order o4 has no ref),
// duplicate build keys (two items with cat "a"), probe misses, and two
// orders whose attributes, taken together, hit items out of domain
// order (o5: b, then a) and one item twice (o6: a, a).
var joinXML = `<shop>
  <item cat="a" n="i1"/>
  <item cat="b" n="i2"/>
  <item cat="a" n="i3"/>
  <order ref="a" n="o1"/>
  <order ref="c" n="o2"/>
  <order ref="b" n="o3"/>
  <order n="o4"/>
  <order ref="b" x="a" n="o5"/>
  <order ref="a" x="a" n="o6"/>
</shop>`

// TestHashJoinCorrectness pins the join's observable semantics:
// output tuple order (outer order major, document order of the build
// side minor), empty and duplicate key groups, the fallback when keys
// leave the string comparison class, and which error surfaces first —
// against the nested loop of the annotate-only oracle.
func TestHashJoinCorrectness(t *testing.T) {
	e := New()
	tests := []struct {
		src, want string // want is the value, or with fails a part of the error text
		joins     int
		fails     bool
	}{
		// o1 matches i1,i3 (duplicate group, document order); o2 matches
		// nothing (empty probe group); o3 matches i2; o4 has an empty
		// key, which eq never matches.
		{`for $o in //order for $i in //item where $o/@ref eq $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2 o5:i2 o6:i1 o6:i3", 1, false},
		// General = over the same data agrees here (singleton keys).
		{`for $o in //order for $i in //item where $o/@ref = $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2 o5:i2 o6:i1 o6:i3", 1, false},
		// Keys of several atoms: every attribute of an order is tried
		// against every attribute of an item; an item two atoms hit comes
		// out once (o6), and the matches come out in domain order, not
		// probe order (o5).
		{`for $o in //order for $i in //item where $o/@* = $i/@*
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2 o5:i1 o5:i2 o5:i3 o6:i1 o6:i3", 1, false},
		// Non-string keys: detected as a join, served by the predicate
		// fallback, same answer as the nested loop.
		{`for $x in (1,2,3) for $y in (2,3,4) where $x eq $y return 10*$x + $y`,
			"22 33", 1, false},
		{`for $x in (1,2,3) for $y in (2,3,4) where $x = $y return 10*$x + $y`,
			"22 33", 1, false},
		// A non-string probe key among string build keys: that tuple
		// alone walks the predicate (and 1 eq "a" is a type error).
		{`for $x in ("a", 1) for $i in //item where $i/@cat eq $x return string($i/@n)`,
			"cannot compare", 1, true},
		// The equality must be the leading conjunct of the last clause
		// to hash; a predicate over both variables that is not an
		// equality never detects.
		{`for $o in //order for $i in //item where $o/@ref != $i/@cat return 1`, strings.TrimSpace(strings.Repeat("1 ", 9)), 0, false},
		// Error order: the nested loop evaluates the predicate first on
		// the first pair, left operand first for eq — so of two failing
		// keys it is the left one's error that surfaces.
		{`for $o in (1, 2) for $i in (3, 4) where $i/x eq ("z" cast as xs:integer) return 1`,
			"atomic values", 1, true},
		{`for $o in (1, 2) for $i in (3, 4) where ("z" cast as xs:integer) eq $i/x return 1`,
			"invalid lexical form", 1, true},
		// An empty build side never evaluates the outer key.
		{`for $o in //order for $i in //nothing where ("z" cast as xs:integer) eq $i/@cat return 1`,
			"", 1, false},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		if got := p.RewriteStats().Joins; got != tt.joins {
			t.Errorf("%q: %d joins detected, want %d", tt.src, got, tt.joins)
		}
		oracle, err := compileOracle(t, e, tt.src)
		if err != nil {
			t.Fatal(err)
		}
		got, want := runOutcome(t, p, joinXML, RunConfig{}), runOutcome(t, oracle, joinXML, RunConfig{})
		if got != want {
			t.Errorf("%q: got %q, the nested loop %q", tt.src, got, want)
		}
		value, _, _ := strings.Cut(got, " | ")
		if failed := strings.HasPrefix(value, "error: "); failed != tt.fails ||
			failed && !strings.Contains(value, tt.want) || !failed && value != tt.want {
			t.Errorf("%q: got %q, want %q (fails: %v)", tt.src, value, tt.want, tt.fails)
		}
	}
}

// TestProfilerRewriteCounters: the optimizer's rewrite counters surface
// per run, and a run of a module nobody optimized reports none.
func TestProfilerRewriteCounters(t *testing.T) {
	e := New()
	doc := libraryDoc(t)
	src := `for $a in //book for $b in //book where $a/@id eq $b/@id and count(//author) > 1 return 1 + 2`
	p, err := e.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	prof := runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if n := prof.RewritesFor("join"); n != 1 {
		t.Errorf("join rewrites = %d, want 1", n)
	}
	if n := prof.RewritesFor("hoist"); n == 0 {
		t.Error("no hoist rewrites recorded")
	}
	if out := prof.Format(); !strings.Contains(out, "rewrite:join") {
		t.Errorf("profile report missing the rewrite lines:\n%s", out)
	}

	oracle, err := compileOracle(t, e, src)
	if err != nil {
		t.Fatal(err)
	}
	plain := runtime.NewProfiler()
	if _, err := oracle.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: plain}); err != nil {
		t.Fatal(err)
	}
	if n := plain.RewritesFor("join"); n != 0 {
		t.Errorf("unoptimized run recorded %d join rewrites", n)
	}
}

// TestHoistedLetOncePerEntry: a hoisted let is evaluated once per entry
// of its FLWOR, not once per tuple. Where the memo would be wrong (a
// loop that can apply a snapshot mid-loop) the optimizer hoists
// nothing, so no run-time switch is needed.
func TestHoistedLetOncePerEntry(t *testing.T) {
	e := New()
	doc := libraryDoc(t)
	src := `for $i in 1 to 20 let $n := count(//book) return $n + $i`
	p := e.MustCompile(src)
	if st := p.RewriteStats(); st.Hoists != 1 {
		t.Fatalf("rewrites %+v, want the let hoisted", st)
	}
	oracle, err := compileOracle(t, e, src)
	if err != nil {
		t.Fatal(err)
	}
	calls := func(p *Program) int64 {
		prof := runtime.NewProfiler()
		if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: prof}); err != nil {
			t.Fatal(err)
		}
		for _, en := range prof.Entries() {
			if en.Kind == "FuncCall" {
				return en.Count
			}
		}
		return 0
	}
	if got := calls(p); got != 1 {
		t.Errorf("count(//book) evaluated %d times, want once per entry", got)
	}
	if got := calls(oracle); got != 20 {
		t.Errorf("the unoptimized loop evaluated count(//book) %d times, want 20", got)
	}
}

// TestCacheReusesCompiledProgram: a program-cache hit returns the same
// Program, so the planner's and the optimizer's work is memoized
// alongside it.
func TestCacheReusesCompiledProgram(t *testing.T) {
	e := New()
	c := NewCache(8)
	src := `for $a in //book for $b in //book where $a/@id eq $b/@id return $a/@id/string()`
	p1, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache miss on identical source: compiled again")
	}
	if p1.RewriteStats().Joins != 1 {
		t.Errorf("cached program lost its rewrite stats: %+v", p1.RewriteStats())
	}
}

// TestCompiledFunctionSemantics pins the user-function calling
// convention where it has teeth: recursion depth limit, argument/result
// conversion errors, and an optimized body (the fold of 2 - 1) called
// recursively.
func TestCompiledFunctionSemantics(t *testing.T) {
	e := New()

	if _, err := e.EvalQuery(`declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`, nil); err == nil || !strings.Contains(err.Error(), "call depth limit") {
		t.Errorf("runaway recursion: got %v, want call depth limit error", err)
	}
	if _, err := e.EvalQuery(`declare function local:f($x as xs:integer) { $x }; local:f("nope")`, nil); err == nil || !strings.Contains(err.Error(), "argument $x of") {
		t.Errorf("argument conversion: got %v", err)
	}
	if _, err := e.EvalQuery(`declare function local:f() as xs:integer { "nope" }; local:f()`, nil); err == nil || !strings.Contains(err.Error(), "result of") {
		t.Errorf("result conversion: got %v", err)
	}

	const fib = `declare function local:fib($n) { if ($n lt 2) then $n else local:fib($n - (2 - 1)) + local:fib($n - 2) }; local:fib(15)`
	oracle, err := compileOracle(t, e, fib)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Program{e.MustCompile(fib), oracle} {
		res, err := p.Run(RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatSequence(res.Value, markup.AppendXML); got != "610" {
			t.Errorf("fib(15), program %d: got %s", i, got)
		}
	}
}
