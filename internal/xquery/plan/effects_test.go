package plan

import (
	"reflect"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// TestHasScripting lists every scripting kind of the ast, alone and
// under each place a walk over ast.MapChildren alone would miss: the
// operand of ast.Hoisted and the three expressions of a join annotation
// (and the word source of a full-text selection, which both walks see).
func TestHasScripting(t *testing.T) {
	hasScripting := func(e ast.Expr) bool { return (&inference{}).infer(e).eff&ast.EffScripting != 0 }
	one := ast.IntLit{Val: 1}
	v := dom.QName{Local: "v"}
	scripting := map[string]ast.Expr{
		"Block":     ast.Block{Stmts: []ast.Expr{one}},
		"BlockDecl": ast.BlockDecl{Var: v, Init: one},
		"Assign":    ast.Assign{Var: v, Val: one},
		"While":     ast.While{Cond: one, Body: one},
		"Break":     ast.Break{},
		"Continue":  ast.Continue{},
		"Exit":      ast.Exit{With: one},
	}
	path := ast.Path{Steps: []ast.Step{{Primary: ast.VarRef{Name: v}}}}
	plain := map[string]ast.Expr{
		"literal":  one,
		"nil":      nil,
		"hoisted":  ast.Hoisted{X: one},
		"update":   ast.Delete{Target: path},
		"event":    ast.EventTrigger{Event: one, Target: path},
		"FLWOR":    ast.FLWOR{Clauses: []ast.Clause{{For: true, Var: v, In: path}}, Return: one},
		"join":     ast.FLWOR{Join: &ast.JoinPlan{OuterKey: one, InnerKey: one, Pred: one}, Return: one},
		"fulltext": ast.FTContains{X: path, Sel: ast.FTNot{X: ast.FTWords{Source: one}}},
	}
	for name, e := range plain {
		if hasScripting(e) {
			t.Errorf("%s: hasScripting", name)
		}
	}
	for name, s := range scripting {
		nests := map[string]ast.Expr{
			"itself":          s,
			"a sequence":      ast.SeqExpr{Items: []ast.Expr{one, s}},
			"Hoisted":         ast.Hoisted{X: s},
			"a join's outer":  ast.FLWOR{Join: &ast.JoinPlan{OuterKey: s, InnerKey: one, Pred: one}, Return: one},
			"a join's inner":  ast.FLWOR{Join: &ast.JoinPlan{OuterKey: one, InnerKey: s, Pred: one}, Return: one},
			"a join's pred":   ast.FLWOR{Join: &ast.JoinPlan{OuterKey: one, InnerKey: one, Pred: s}, Return: one},
			"a word source":   ast.FTContains{X: path, Sel: ast.FTAnd{L: ast.FTWords{Source: one}, R: ast.FTNot{X: ast.FTWords{Source: s}}}},
			"a predicate":     ast.Path{Steps: []ast.Step{{Primary: one, Preds: []ast.Expr{s}}}},
			"a function call": ast.FuncCall{Name: dom.QName{Space: fnSpace, Local: "count"}, Args: []ast.Expr{s}},
		}
		for where, e := range nests {
			if !hasScripting(e) {
				t.Errorf("%s as %s: not found", name, where)
			}
		}
	}
}

// TestOptimizerLeavesLoopsThatChangeTheDocuments: a FLWOR gets no
// pushdown, hoist or join when evaluating it can reach something that
// changes the documents before the loop ends — decided per module, over
// its call graph.
func TestOptimizerLeavesLoopsThatChangeTheDocuments(t *testing.T) {
	const (
		loop = `for $x in //item where $x/@s = "new" and count(//item) > 0 return local:f($x)`
		join = `for $a in //item for $b in //item where $a/@id eq $b/@id return local:f($a)`
	)
	for _, tc := range []struct {
		name, prolog, body string
		rewrites           int // pushdowns + hoists + joins
	}{
		{"a plain function", `declare function local:f($x) { string($x/@id) };`, loop, 2},
		{"a plain function, join", `declare function local:f($x) { string($x/@id) };`, join, 1},
		{"a recursive plain function",
			`declare function local:f($x) { if ($x/@id) then string($x/@id) else local:f($x/..) };`, loop, 2},
		{"an updating function", `declare updating function local:f($x) { delete node $x };`, loop, 2},
		{"a sequential function", `declare sequential function local:f($x) { delete node $x; 1 };`, loop, 0},
		{"a sequential function, join", `declare sequential function local:f($x) { delete node $x; 1 };`, join, 0},
		{"a sequential function without statements", `declare sequential function local:f($x) { 1 };`, loop, 0},
		{"a block in a plain function", `declare function local:f($x) { { delete node $x; 1 } };`, loop, 0},
		{"through the call graph",
			`declare function local:f($x) { local:g($x) }; declare function local:g($x) { local:h($x) };
			 declare sequential function local:h($x) { delete node $x; 1 };`, loop, 0},
		{"an external function", `declare function local:f($x) external;`, loop, 0},
		{"an undeclared name", ``, loop, 0},
		{"a host function", `declare namespace b = "http://www.example.com/browser";`,
			`for $x in //item where $x/@s = "new" return b:alert($x)`, 0},
		{"an imported function", `import module namespace m = "urn:m";`,
			`for $x in //item where $x/@s = "new" return m:f($x)`, 0},
		{"a library function", ``, `for $x in //item where $x/@s = "new" return xs:integer($x/@id) + count($x/*)`, 1},
		{"a full-text function", ``,
			`for $x in //item where $x/@s = "new" order by ft:score($x) return string($x/@id)`, 1},
		{"a keyword-in-context function", ``,
			`for $x in //item where $x/@s = "new" return kwic:summarize($x, "a")`, 1},
		{"an event statement", ``, `for $x in //item where $x/@s = "new" return trigger event "click" at $x`, 0},
		{"a style statement", ``, `for $x in //item where $x/@s = "new" return set style "color" of $x to "red"`, 0},
		{"in the where clause", `declare sequential function local:f($x) { 1 };`,
			`for $x in //item let $n := count(//item) where local:f($x) and $x/@s = "new" return $n`, 0},
		{"an outer loop only", `declare sequential function local:f($x) { 1 };`,
			`for $y in (1, 2) return (local:f($y), for $x in //item where $x/@s = "new" return $x)`, 1},
	} {
		m, err := parser.ParseModule(tc.prolog + tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		Prepare(m)
		if got := m.Rewrites.Pushdowns + m.Rewrites.Hoists + m.Rewrites.Joins; got != tc.rewrites {
			t.Errorf("%s: rewrites %+v, want %d of pushdown, hoist and join", tc.name, m.Rewrites, tc.rewrites)
		}
	}
}

// TestPrepareInstallsSecondRoots: the optimized trees go beside the
// planned ones, which stay what Annotate alone makes them; a unit with
// scripting constructs gets none.
func TestPrepareInstallsSecondRoots(t *testing.T) {
	const src = `declare function local:pure($x) { for $b in //book where $b/@id = $x return $b };
declare function local:script($x) { { declare variable $n := 1 + 2; $n } };
if (1 = 1) then local:pure("b2") else local:script(0)`
	parse := func() *ast.Module {
		m, err := parser.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	planned, m := parse(), parse()
	Annotate(planned)
	Prepare(m)
	if !reflect.DeepEqual(m.Body, planned.Body) {
		t.Errorf("Prepare changed the planned body:\n%+v\nwant\n%+v", m.Body, planned.Body)
	}
	for i := range m.Prolog.Functions {
		if !reflect.DeepEqual(m.Prolog.Functions[i].Body, planned.Prolog.Functions[i].Body) {
			t.Errorf("Prepare changed the planned body of %s", m.Prolog.Functions[i].Name)
		}
	}
	if _, folded := m.Optimized.(ast.FuncCall); !folded {
		t.Errorf("optimized body = %T, want the then branch the fold selects", m.Optimized)
	}
	pure, script := m.Prolog.Functions[0], m.Prolog.Functions[1]
	if pure.Optimized == nil || reflect.DeepEqual(pure.Optimized, pure.Body) {
		t.Error("local:pure: no pushdown in its optimized body")
	}
	if script.Optimized != nil {
		t.Error("local:script has a block and an optimized body")
	}
	if want := (Stats{Folds: 2, Pushdowns: 1}); m.Rewrites != want { // the comparison, then the branch
		t.Errorf("rewrites %+v, want %+v", m.Rewrites, want)
	}
}

// TestFlattenTakesInnerHoistsBack: what an inner FLWOR hoisted was
// invariant across its own tuples; merged into the outer one it varies
// with the outer variable, so the mark — and its count — must go.
func TestFlattenTakesInnerHoistsBack(t *testing.T) {
	var st Stats
	_, body := plannedBody(t, `for $a in (1, 2) return for $b in (1, 2) let $n := $a * 10 where $a > 0 return $n + $b`)
	f := Optimize(body, &st).(ast.FLWOR)
	if len(f.Clauses) != 3 {
		t.Fatalf("not flattened: %d clauses", len(f.Clauses))
	}
	if hoisted := contains(f, func(e ast.Expr) bool { _, ok := e.(ast.Hoisted); return ok }); hoisted || st.Hoists != 0 {
		t.Errorf("hoist marks after flattening: %v, counted %d", hoisted, st.Hoists)
	}

	// What is invariant in the merged FLWOR is hoisted there, once, with
	// slots of its own.
	st = Stats{}
	_, body = plannedBody(t, `for $a in (1, 2) return for $b in (1, 2) let $n := count(//x) where count(//y) > 0 return $n + $b`)
	f = Optimize(body, &st).(ast.FLWOR)
	let, isLet := f.Clauses[2].In.(ast.Hoisted)
	where, isWhere := f.Where.(ast.Hoisted)
	if !isLet || !isWhere || let.Slot != 0 || where.Slot != 1 || st.Hoists != 2 {
		t.Errorf("let %+v, where %+v, stats %+v", f.Clauses[2].In, f.Where, st)
	}
}
