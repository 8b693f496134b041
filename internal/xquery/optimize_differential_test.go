package xquery

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/update"
)

// compileDifferentialCorpus is the optimizer's differential corpus:
// every query runs as Engine.Compile hands it out — the optimized roots
// — and as the annotate-only oracle, the same evaluator over a module
// nobody optimized, and everything a caller can see of the two runs
// must agree byte for byte. It covers the paper's listings shapes
// (updates, scripting, events are exercised by their own tests too),
// every optimizer rewrite (folding, flattening, pushdown, hoisting, join
// detection) and what the rewrites must leave alone.
var compileDifferentialCorpus = []string{
	// Literals, arithmetic, folding fodder.
	`1`, `1 + 2 * 3`, `(1 + 2) * 3`, `10 div 4`, `10 idiv 4`, `-5 + 2`,
	`2.5 + 2.5`, `"hello"`, `()`, `(1,2,3)`, `1 to 5`, `5 to 1`,
	`if (1 + 1 eq 2) then "y" else "n"`,
	`if (fn:false()) then 1 div 0 else "safe"`,
	// Comparisons, value and general, ordered.
	`1 < 2`, `1 eq 1`, `"a" lt "b"`, `(1,2,3) = 3`, `(1,2,3) = 4`,
	`() = 1`, `1 = 1.0`, `(1,2) != (1,2)`,
	// Paths and predicates (bridged, planned once).
	`//book/title/string()`,
	`(//book)[1]/@id/string()`,
	`//book[price > 50]/title/string()`,
	`//book[position() < 3]/title/string()`,
	`count(//book[last()])`,
	`string-join(//book/ancestor-or-self::*/name(), "/")`,
	// Plain FLWOR shapes.
	`for $b in //book return $b/title/string()`,
	`for $b in //book where $b/price > 50 return $b/@id/string()`,
	`for $b in //book let $t := $b/title return $t/string()`,
	`for $i in 1 to 5 return $i * $i`,
	`for $i at $p in ("a","b","c") return concat($p, $i)`,
	`for $b as element() in //book return name($b)`,
	`let $x as xs:integer := 3 return $x + 1`,
	// Order by (native sorting path).
	`for $b in //book order by $b/@id descending return $b/@year/string()`,
	`for $b in //book order by number($b/price) return $b/title/string()`,
	`for $i in (3,1,2) order by $i return $i`,
	`for $b in //book order by $b/author[1], $b/@id return $b/@id/string()`,
	// Predicate pushdown candidates.
	`for $b in //book where $b/@id = "b2" return $b/title/string()`,
	`for $b in //book where $b/price > 50 and $b/@year = "2005" return name($b)`,
	`for $b in //book where $b/author = "Knuth" return $b/@id/string()`,
	// Context-defaulting builtins in where conjuncts must keep reading
	// the outer focus: pushdown would rebind their implicit context
	// item to each candidate node (walker yields () here, because the
	// document node's local-name is empty).
	`for $x in //* where local-name() = "book" return 1`,
	`for $b in //book where name() = "book" return $b/@id/string()`,
	`for $b in //book where string-length() > 1 return $b/@id/string()`,
	`for $b in //book where string($b/@id) = "b2" return $b/title/string()`,
	// Hoisting candidates (loop-invariant let and where conjuncts).
	`for $b in //book let $all := count(//book) where $all > 2 return $b/@id/string()`,
	`for $i in 1 to 10 let $base := string-length("invariant") return $i + $base`,
	`for $b in //book where count(//author) > 3 and $b/price > 50 return name($b)`,
	// Join candidates: eq and = over string-class keys.
	`for $a in //book for $b in //book where $a/@id eq $b/@id return $a/@id/string()`,
	`for $a in //book for $b in //book where $a/@year = $b/@year return concat($a/@id, "-", $b/@id)`,
	`for $a in //book for $b in //book where $a/author = $b/author return concat($a/@id, $b/@id)`,
	`for $a in //book for $b in //book where $a/@id eq $b/@id and $a/price > 50 return name($b)`,
	// Join fallback: numeric (non-string-class) keys.
	`for $x in (1,2,3) for $y in (2,3,4) where $x eq $y return $x`,
	`for $x in (1,2,3) for $y in (2,3,4) where $x = $y return 10 * $x + $y`,
	// Joins with empty and duplicate key groups.
	`for $a in //book for $b in //book/author where $a/author eq $b return $a/@id/string()`,
	`for $t in //book/title for $b in //book where $b/title eq $t return $b/@id/string()`,
	// Nested FLWOR without a join (correlated inner domain).
	`for $b in //book for $a in $b/author return concat($b/@id, ":", $a)`,
	// Quantified, typeswitch, casts (bridged).
	`some $b in //book satisfies $b/author = "Knuth"`,
	`every $b in //book satisfies fn:exists($b/title)`,
	`typeswitch (//book[1]/@id) case $a as attribute() return "attr" default return "other"`,
	`xs:integer("42") + 1`,
	`"3" cast as xs:double`,
	// Function calls: streaming built-ins (bridged), eager built-ins,
	// user functions (compiled), recursion across compiled bodies.
	`fn:exists(//book[price > 50])`,
	`fn:head(fn:tail(//author))`,
	`fn:subsequence(1 to 20, 5, 3)`,
	`sum(for $i in 1 to 50 return $i)`,
	`declare function local:twice($x as xs:integer) as xs:integer { 2 * $x }; local:twice(21)`,
	`declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)`,
	`declare function local:odd($n) { if ($n eq 0) then fn:false() else local:even($n - 1) };
	 declare function local:even($n) { if ($n eq 0) then fn:true() else local:odd($n - 1) };
	 local:odd(9)`,
	`declare function local:pick($b) { $b/title/string() };
	 for $b in //book where $b/price > 50 return local:pick($b)`,
	// Globals and prolog variables.
	`declare variable $threshold := 50; for $b in //book where $b/price > $threshold return name($b)`,
	// Constructors (bridged) inside compiled FLWOR.
	`for $b in //book return <t id="{$b/@id}">{$b/title/string()}</t>`,
	// Updates: PUL parity between the backends.
	`for $b in //book where $b/price > 100 return rename node $b as "expensive"`,
	`insert node <new/> into (//library)[1]`,
	`delete nodes //book[@id = "b2"]`,
	`copy $c := (//book)[1] modify delete nodes $c/author return count($c/*)`,
	// Scripting (poisons the unit: whole body bridges to the walker).
	`declare variable $acc := 0; (for $i in 1 to 3 return $i, $acc)`,
	// EBV laziness: errors hidden beyond the early-exit point must stay
	// hidden in both backends.
	`if ((<x/>, fn:error())) then "t" else "f"`,
	`(1,2,3)[2]`,
	// Errors that must surface in both backends.
	`1 + "a"`,
	`//book["x"]`,
	`fn:error()`,
	`1 div 0`,
	`for $x in (1, 2) where $x eq "s" return $x`,
	// A where conjunct must not move into the domain when the body can
	// apply a snapshot mid-loop: under scripting semantics the second
	// book is marked before its turn comes.
	`declare sequential function local:mark($b) {
	   for $n in $b/following-sibling::book[1] return replace value of node $n/@year with "seen";
	   string($b/@id) };
	 for $b in //book where $b/@year != "seen" return local:mark($b)`,
	// The same through a plain function that calls the sequential one,
	// and with the conjunct a hoist and a join would take.
	`declare sequential function local:mark($b) { delete node $b/following-sibling::book[1]; string($b/@id) };
	 declare function local:via($b) { local:mark($b) };
	 for $b in //book let $n := count(//book) where $n > 0 return concat(local:via($b), "/", $n)`,
	`declare sequential function local:drop($a) { delete nodes //book[@id = "b3"]; string($a/@id) };
	 for $a in //book for $b in //book where $a/@id eq $b/@id return local:drop($a)`,
	// A let hoisted in an inner FLWOR is invariant across the inner
	// tuples only; flattening must not keep the mark.
	`for $a in (1, 2) return for $b in (1, 2) let $n := $a * 10 return $n + $b`,
	`for $a in //book return for $t in $a/title let $n := count($a/author) where $n > 1 return concat($t, $n)`,
	// Hoisted conjuncts: first use only, never for an empty loop.
	`for $b in //nothing where 1 div 0 > 0 return $b`,
	`for $b in //book where count(//author) > 3 and 1 div 0 > 0 return $b`,
	// Join error order and key classes.
	`for $a in //book for $b in //book where $a/author eq $b/author return 1`,
	`for $a in //book for $b in //book where $a/price + 1 eq $b/@id return 1`,
	`for $a in //book for $b in //book where $a/@id = $b/author return $b/@id/string()`,
	`for $a in (1, "b2") for $b in //book where $b/@id eq $a return $b/@id/string()`,
	// A streaming = never pulls its left operand when the right one is
	// empty: the outer key's error stays hidden, and the first pull waits
	// for the first build item with a key.
	`for $A in */book for $b in */book where $B = $b/A return 0`,
	`for $a in */book for $b in */book where $a/@id = $b/preceding-sibling::book/@id return concat($a/@id, $b/@id)`,
}

// compileOracle compiles src from a module of its own whose one
// planning pass was plan.Annotate alone: nothing optimized, so the
// evaluator runs the planned roots. It is the oracle of every optimizer
// differential, and the reason no production switch exists for one.
func compileOracle(tb testing.TB, e *Engine, src string) (*Program, error) {
	tb.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	m.EnsurePlanned(func() { plan.Annotate(m) })
	return e.CompileModule(m)
}

// nodePath locates a node for a PUL dump: names and sibling positions
// up to its root.
func nodePath(n *dom.Node) string {
	if n.Parent() == nil {
		return n.Type.String() + ":" + n.Name.String()
	}
	pos := 0
	for i, c := range n.Parent().Children() {
		if c == n {
			pos = i + 1
		}
	}
	return fmt.Sprintf("%s/%s[%d]", nodePath(n.Parent()), n.Name, pos)
}

// runOutcome runs p on a parse of docXML of its own and renders
// everything a caller can see of the run: value (or error text), applied
// primitives, final document. cfg.OnUpdate and cfg.ContextItem are the
// helper's.
func runOutcome(tb testing.TB, p *Program, docXML string, cfg RunConfig) string {
	tb.Helper()
	doc, err := markup.Parse(docXML)
	if err != nil {
		tb.Fatal(err)
	}
	var pul strings.Builder
	cfg.ContextItem = xdm.NewNode(doc)
	cfg.OnUpdate = func(pr update.Primitive) {
		fmt.Fprintf(&pul, "%s %s", pr.Kind, nodePath(pr.Target))
		for _, c := range pr.Content {
			if c.Type == dom.AttributeNode {
				fmt.Fprintf(&pul, " @%s=%q", c.Name, c.Data)
			} else {
				fmt.Fprintf(&pul, " %s", markup.Serialize(c))
			}
		}
		fmt.Fprintf(&pul, " %q %s; ", pr.Value, pr.Name)
	}
	res, err := p.Run(cfg)
	if err != nil {
		return "error: " + err.Error() + " | " + markup.Serialize(doc)
	}
	return FormatSequence(res.Value, markup.AppendXML) + " | " + pul.String() + "| " + markup.Serialize(doc)
}

// optimizerRunModes are the evaluator configurations every optimizer
// differential crosses: streaming on and off, scripting snapshots off
// and on (the optimized tree runs as it is in all four: the static
// midLoop rule, not the run mode, keeps rewrites off a loop that can
// apply a snapshot).
var optimizerRunModes = []struct {
	name string
	cfg  RunConfig
}{
	{"default", RunConfig{}},
	{"DisableStreaming", RunConfig{DisableStreaming: true}},
	{"Sequential", RunConfig{Sequential: true}},
	{"Sequential+DisableStreaming", RunConfig{Sequential: true, DisableStreaming: true}},
}

// diffOptimized runs src optimized and as the oracle in every run mode
// and reports where the outcomes differ. ok is false when src does not
// compile or some run ran out of budget (the two trees legitimately
// spend different step counts on one query).
func diffOptimized(tb testing.TB, e *Engine, src, docXML string, maxSteps int64, timeout time.Duration) (diffs []string, ok bool) {
	tb.Helper()
	opt, err := e.Compile(src)
	if err != nil {
		return nil, false
	}
	oracle, err := compileOracle(tb, e, src)
	if err != nil {
		tb.Fatalf("%q compiles, its oracle does not: %v", src, err)
	}
	for _, m := range optimizerRunModes {
		cfg := m.cfg
		cfg.MaxSteps, cfg.Timeout = maxSteps, timeout
		cfg.Now = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		got, want := runOutcome(tb, opt, docXML, cfg), runOutcome(tb, oracle, docXML, cfg)
		if strings.Contains(got, ErrBudgetExceeded.Error()) || strings.Contains(want, ErrBudgetExceeded.Error()) {
			return nil, false
		}
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s\n%s, optimized: %s\n%s, oracle:    %s", src, m.name, got, m.name, want))
		}
	}
	return diffs, true
}

// TestCompileDifferential holds what Engine.Compile produces to the
// annotate-only oracle: values, applied primitives, final documents and
// error text byte-identical, in every run mode.
func TestCompileDifferential(t *testing.T) {
	e := New()
	for _, src := range compileDifferentialCorpus {
		diffs, ok := diffOptimized(t, e, src, libraryXML, 500_000, 5*time.Second)
		if !ok {
			t.Errorf("%q: does not compile, or ran out of budget", src)
		}
		for _, d := range diffs {
			t.Error(d)
		}
	}
}

// TestCompileDifferentialStreamingMatrix crosses the two trees with the
// streaming switch: four configurations, one answer.
func TestCompileDifferentialStreamingMatrix(t *testing.T) {
	e := New()
	queries := []string{
		`for $a in //book for $b in //book where $a/@year = $b/@year return concat($a/@id, $b/@id)`,
		`for $b in //book where $b/@id = "b2" return $b/title/string()`,
		`for $b in //book let $n := count(//book) order by $b/@id descending return concat($b/@id, $n)`,
		`sum(for $i in 1 to 100 return $i)`,
	}
	for _, src := range queries {
		opt := e.MustCompile(src)
		oracle, err := compileOracle(t, e, src)
		if err != nil {
			t.Fatal(err)
		}
		want := runOutcome(t, opt, libraryXML, RunConfig{MaxSteps: 500_000})
		for i, p := range []*Program{opt, oracle} {
			for _, eager := range []bool{false, true} {
				if got := runOutcome(t, p, libraryXML, RunConfig{MaxSteps: 500_000, DisableStreaming: eager}); got != want {
					t.Errorf("%q, program %d, DisableStreaming %v: %q != %q", src, i, eager, got, want)
				}
			}
		}
	}
}

// TestSequentialPushdownRepro: the loop body marks the next item before
// its turn comes, so under scripting snapshots the where clause must see
// the mark — which it does not when the conjunct was pushed into the
// domain, computed before the first tuple. The optimizer refuses the
// rewrite (plan/optimize.go), so the program answers the same optimized
// or not, streamed or not.
func TestSequentialPushdownRepro(t *testing.T) {
	const (
		doc = `<r><item id="1" s="new"/><item id="2" s="new"/><item id="3" s="new"/></r>`
		src = `declare sequential function local:mark($x) {
			for $n in $x/following-sibling::item[1] return replace value of node $n/@s with "done";
			string($x/@id) };
			for $x in //item where $x/@s = "new" return local:mark($x)`
	)
	e := New()
	opt := e.MustCompile(src)
	if st := opt.RewriteStats(); st.Pushdowns+st.Hoists+st.Joins != 0 {
		t.Errorf("rewrites %+v on a loop whose body applies snapshots", st)
	}
	oracle, err := compileOracle(t, e, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Program{opt, oracle} {
		for _, m := range optimizerRunModes {
			got := runOutcome(t, p, doc, m.cfg)
			// Pure update semantics: nothing applies before the end.
			want := `1 2 3 | <r><item id="1" s="new"/><item id="2" s="done"/><item id="3" s="done"/></r>`
			if m.cfg.Sequential {
				want = `1 3 | <r><item id="1" s="new"/><item id="2" s="done"/><item id="3" s="new"/></r>`
			}
			value, rest, _ := strings.Cut(got, " | ")
			if got := value + rest[strings.LastIndex(rest, " | "):]; got != want {
				t.Errorf("%s: %s, want %s", m.name, got, want)
			}
		}
	}
}

// FuzzCompileDifferential is TestCompileDifferential over whatever the
// fuzzer writes, the same way FuzzStreamingDifferential checks streaming
// against eager evaluation. Runs that exceed the budget are skipped.
func FuzzCompileDifferential(f *testing.F) {
	for _, s := range compileDifferentialCorpus {
		f.Add(s)
	}
	e := New()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		diffs, _ := diffOptimized(t, e, src, libraryXML, 200_000, time.Second)
		for _, d := range diffs {
			t.Fatal(d)
		}
	})
}
