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
		// domain iteration order must keep matching the walker).
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

// joinDoc gives the hash join empty key groups (book b4 has no ref),
// duplicate build keys (two items with cat "a") and probe misses.
var joinXML = `<shop>
  <item cat="a" n="i1"/>
  <item cat="b" n="i2"/>
  <item cat="a" n="i3"/>
  <order ref="a" n="o1"/>
  <order ref="c" n="o2"/>
  <order ref="b" n="o3"/>
  <order n="o4"/>
</shop>`

// TestHashJoinCorrectness pins the join's observable semantics:
// output tuple order (outer order major, document order of the build
// side minor), empty and duplicate key groups, and the fallback when
// keys leave the string comparison class.
func TestHashJoinCorrectness(t *testing.T) {
	doc, err := markup.Parse(joinXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	tests := []struct {
		src, want string
		joins     int
	}{
		// o1 matches i1,i3 (duplicate group, document order); o2 matches
		// nothing (empty probe group); o3 matches i2; o4 has an empty
		// key, which eq never matches.
		{`for $o in //order for $i in //item where $o/@ref eq $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2", 1},
		// General = over the same data agrees here (singleton keys).
		{`for $o in //order for $i in //item where $o/@ref = $i/@cat
		  return concat($o/@n, ":", $i/@n)`,
			"o1:i1 o1:i3 o3:i2", 1},
		// Non-string keys: detected as a join, served by the predicate
		// fallback, same answer as the walker.
		{`for $x in (1,2,3) for $y in (2,3,4) where $x eq $y return 10*$x + $y`,
			"22 33", 1},
		{`for $x in (1,2,3) for $y in (2,3,4) where $x = $y return 10*$x + $y`,
			"22 33", 1},
		// The equality must be the leading conjunct of the last clause
		// to hash; a predicate over both variables that is not an
		// equality never detects.
		{`for $o in //order for $i in //item where $o/@ref != $i/@cat return 1`, strings.TrimSpace(strings.Repeat("1 ", 6)), 0},
	}
	for _, tt := range tests {
		p, err := e.Compile(tt.src)
		if err != nil {
			t.Fatalf("compile %q: %v", tt.src, err)
		}
		if got := p.RewriteStats().Joins; got != tt.joins {
			t.Errorf("%q: %d joins detected, want %d", tt.src, got, tt.joins)
		}
		for _, disable := range []bool{false, true} {
			res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), DisableCompile: disable})
			if err != nil {
				t.Fatalf("%q (disable=%v): %v", tt.src, disable, err)
			}
			if got := FormatSequence(res.Value, markup.AppendXML); got != tt.want {
				t.Errorf("%q (disable=%v): got %q, want %q", tt.src, disable, got, tt.want)
			}
		}
	}
}

// TestProfilerCompiledColumn checks the profiler's compiled counters:
// native closures report under the walker's kind names, rewrite
// counters surface per run, and the walker-only path reports none.
func TestProfilerCompiledColumn(t *testing.T) {
	e := New()
	doc := libraryDoc(t)
	src := `for $a in //book for $b in //book where $a/@id eq $b/@id and count(//author) > 1 return 1 + 2`
	p, err := e.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	prof := newRunProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if n := prof.CompiledFor("FLWOR"); n == 0 {
		t.Error("compiled run: no compiled FLWOR evaluations recorded")
	}
	if n := prof.RewritesFor("join"); n != 1 {
		t.Errorf("compiled run: join rewrites = %d, want 1", n)
	}
	if n := prof.RewritesFor("hoist"); n == 0 {
		t.Error("compiled run: no hoist rewrites recorded")
	}
	out := prof.Format()
	if !strings.Contains(out, "compiled") || !strings.Contains(out, "rewrite:join") {
		t.Errorf("profile report missing compiled column or rewrite lines:\n%s", out)
	}

	walk := newRunProfiler()
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: walk, DisableCompile: true}); err != nil {
		t.Fatal(err)
	}
	if n := walk.CompiledFor("FLWOR"); n != 0 {
		t.Errorf("walker run recorded %d compiled FLWOR evaluations", n)
	}
	if n := walk.RewritesFor("join"); n != 0 {
		t.Errorf("walker run recorded %d join rewrites", n)
	}
}

// TestCacheReusesCompiledProgram: a program-cache hit returns the same
// Program, so the closure compilation (and the optimizer work behind
// it) is memoized alongside it.
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
		t.Error("cache miss on identical source: compiled closures rebuilt")
	}
	if p1.shared.compiled == nil || p1.shared != p2.shared {
		t.Error("cached programs do not share the compiled form")
	}
	if p1.RewriteStats().Joins != 1 {
		t.Errorf("cached program lost its rewrite stats: %+v", p1.RewriteStats())
	}
}

// TestCompiledFunctionSemantics pins the compiled user-function calling
// convention against walker behaviours with teeth: recursion depth
// limit, argument/result conversion errors, exit-with unwinding.
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

	p := e.MustCompile(`declare function local:fib($n) { if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(15)`)
	for _, disable := range []bool{false, true} {
		res, err := p.Run(RunConfig{DisableCompile: disable})
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatSequence(res.Value, markup.AppendXML); got != "610" {
			t.Errorf("fib(15) disable=%v: got %s", disable, got)
		}
	}
}

// newRunProfiler is a tiny indirection so the test reads clearly.
func newRunProfiler() *runtime.Profiler { return runtime.NewProfiler() }
