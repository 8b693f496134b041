package plan

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// propsRow is one expression and its record: src is parsed (behind
// prolog) and its body inferred, or expr is inferred as it is.
type propsRow struct {
	prolog, src string
	expr        ast.Expr
	eff         ast.Effects
	kind        resultKind
	boolean     bool
}

const (
	focus      = ast.EffReadsFocus
	impure     = ast.EffImpure
	constructs = ast.EffConstructs
	updates    = ast.EffUpdates
	scripting  = ast.EffScripting
	atOnce     = ast.EffActsAtOnce
	module     = ast.EffModuleCall
	resolves   = ast.EffResolves
)

// propsTable has a row for every expression kind of the ast
// (TestPropsCoversEveryKind), and rows for the cases where the pass
// answers differently from the classifiers it replaced: the two drift
// fixes (ft:, kwic:) and the answers that are more precise or more
// conservative and proven sound (see DESIGN.md §5r).
var propsTable = []propsRow{
	{src: `"a"`, kind: kindAtomic, boolean: true},
	{src: `1`, kind: kindAtomic},
	{src: `1.5`, kind: kindAtomic},
	{src: `1e0`, kind: kindAtomic},
	{prolog: `declare variable $v external; `, src: `$v`},
	{src: `.`, eff: focus},
	{src: `(1, "a")`, kind: kindAtomic},
	{src: `(1, //a)`, eff: focus},
	{src: `ordered { 1 }`, kind: kindAtomic},
	{src: `if (//a) then 1 else "x"`, eff: focus, kind: kindAtomic},
	{src: `if (1) then //a else 2`, eff: focus},
	{src: `for $x in (1, 2) where $x > 1 return $x + 1`, kind: kindAtomic},
	{src: `for $x in (1, 2) return $x`},
	{src: `some $x in //a satisfies $x = 1`, eff: focus, kind: kindAtomic, boolean: true},
	{src: `1 + 2`, kind: kindAtomic},
	{src: `1 and 2`, kind: kindAtomic, boolean: true},
	{src: `//a union //b`, eff: focus},
	{src: `1 = 2`, kind: kindAtomic, boolean: true},
	{src: `-1`, kind: kindAtomic},
	{src: `1 to 3`, kind: kindAtomic},
	{src: `1 instance of xs:integer`, kind: kindAtomic, boolean: true},
	{src: `1 treat as xs:integer`},
	{src: `"1" cast as xs:integer`, kind: kindAtomic},
	{src: `"1" castable as xs:integer`, kind: kindAtomic, boolean: true},
	// Paths: the focus a step sets is the path's own.
	{src: `//a`, eff: focus, kind: kindNode, boolean: true},
	{src: `/`, eff: focus},
	{prolog: `declare variable $v external; `, src: `$v/a[. = 1][string() = "x"]/b`, kind: kindNode, boolean: true},
	{prolog: `declare variable $v external; `, src: `$v/string()`},
	{src: `(.)/a`, eff: focus, kind: kindNode, boolean: true},
	// Calls: the library table, the module's functions, everything else.
	{src: `count(//a)`, eff: focus, kind: kindAtomic},
	{src: `string()`, eff: focus, kind: kindAtomic},
	{src: `string(1)`, kind: kindAtomic},
	{src: `head((1, 2))`},
	{src: `doc("d")`, eff: resolves},
	{src: `collection("c")`, eff: resolves},
	{src: `collection()`, eff: resolves},
	{src: `doc-available("d")`, eff: impure},
	{src: `fn:put(<a/>, "u")`, eff: ast.EffWrites | impure | constructs},
	{src: `position()`, eff: impure | ast.EffReadsPosition},
	{src: `last()`, eff: impure | ast.EffReadsLast},
	{src: `xs:integer("1")`, eff: impure},
	{src: `ft:score(.)`, eff: impure | focus | ast.EffReadsScores}, // drift fix: ft: is the library's
	{src: `kwic:summarize(., "a")`, eff: impure | focus},           // drift fix: so is kwic:
	{src: `data()`, kind: kindAtomic},                              // no focus row: the library has no data#0
	{src: `browser:alert(1)`, eff: ast.EffOpaqueCall},              // a host function
	{prolog: `import module namespace m = "urn:m"; `, src: `m:f()`, eff: ast.EffOpaqueCall},
	{prolog: `declare function local:f() { 1 }; `, src: `local:f()`, eff: module},
	{prolog: `declare function local:f() { 1 }; `, src: `local:f(1)`, eff: ast.EffOpaqueCall}, // not at that arity
	{prolog: `declare function local:name() { 1 }; `, src: `local:name()`, eff: module},       // its focus is its own
	{prolog: `declare function fn:string($x) { <a/> }; `, src: `string(1)`, eff: module | constructs},
	{prolog: `declare updating function local:u() { delete node /a }; `, src: `local:u()`, eff: module | updates},
	{prolog: `declare sequential function local:s() { 1 }; `, src: `local:s()`, eff: module | ast.EffSequentialCall},
	{prolog: `declare function local:e() external; `, src: `local:e()`, eff: module | ast.EffOpaqueCall},
	{prolog: `declare function local:b() { { declare variable $i := 1; $i } }; `, src: `local:b()`, eff: module | ast.EffScriptedCall},
	{prolog: `declare function local:g() { trigger event "e" at /a }; `, src: `local:g()`, eff: module | atOnce},
	// The least fixpoint: recursion alone convicts nothing; what a
	// cycle reaches, every function on it does.
	{prolog: `declare function local:r($n) { if ($n) then local:r($n - 1) else 0 }; `, src: `local:r(3)`, eff: module},
	{prolog: `declare function local:a() { local:b() }; declare function local:b() { (local:a(), local:c()) };
		declare function local:c() { delete node /x };`, src: `local:a()`, eff: module | updates},
	// Constructors, updates, copy … modify.
	{src: `<a>{1}</a>`, eff: constructs},
	{src: `element a { 1 }`, eff: constructs},
	{src: `insert node <a/> into /b`, eff: updates | constructs | focus},
	{src: `delete node /a`, eff: updates | focus},
	{src: `replace value of node /a with "v"`, eff: updates | focus},
	{src: `rename node /a as "b"`, eff: updates | focus},
	{src: `copy $c := <a><b/></a> modify delete node $c/b return $c`, eff: constructs}, // its updates target copies
	{src: `copy $c := <a/> modify fn:put($c, "u") return 1`, eff: constructs | ast.EffWrites | impure},
	{src: `copy $c := <a/> modify () return delete node /x`, eff: constructs | updates | focus},
	// Scripting and the browser's statements.
	{src: `block { 1; }`, eff: scripting},
	{expr: ast.BlockDecl{Var: dom.Name("v"), Init: ast.IntLit{Val: 1}}, eff: scripting},
	{expr: ast.Assign{Var: dom.Name("v"), Val: ast.IntLit{Val: 1}}, eff: scripting},
	{expr: ast.While{Cond: ast.IntLit{Val: 1}, Body: ast.IntLit{Val: 1}}, eff: scripting},
	{expr: ast.Exit{With: ast.IntLit{Val: 1}}, eff: scripting},
	{expr: ast.Break{}, eff: scripting},
	{expr: ast.Continue{}, eff: scripting},
	{src: `on event "click" at /a attach listener local:f`, eff: atOnce | focus},
	{src: `on event "click" at /a detach listener local:f`, eff: atOnce | focus},
	{src: `trigger event "click" at /a`, eff: atOnce | focus},
	{src: `set style "color" of /a to "red"`, eff: atOnce | focus},
	{src: `get style "color" of /a`, eff: impure | focus},
	// Full text records the scores ft:score reads.
	{src: `/a ftcontains "x" ftand ftnot {"y", .}`, eff: ast.EffScores | focus, kind: kindAtomic, boolean: true},
	// The optimizer's own nodes, and two kinds the optimizer now moves
	// when what is under them is pure: a typeswitch (like an if) and a
	// FLWOR with a join (evaluated deterministically, hoisted or not).
	{expr: ast.Hoisted{X: ast.IntLit{Val: 1}}},
	{expr: ast.FLWOR{Clauses: []ast.Clause{{For: true, Var: dom.Name("a"), In: ast.IntLit{Val: 1}}},
		Join:   &ast.JoinPlan{OuterKey: ast.IntLit{Val: 1}, InnerKey: ast.IntLit{Val: 1}, Pred: ast.IntLit{Val: 1}},
		Return: ast.IntLit{Val: 1}}, kind: kindAtomic},
	{src: `typeswitch (1) case xs:integer return 1 default return 2`},
}

func TestProps(t *testing.T) {
	for _, c := range propsTable {
		in, e, name := &inference{}, c.expr, fmt.Sprintf("%T", c.expr)
		if e == nil {
			m, err := parser.ParseModule(c.prolog + c.src)
			if err != nil {
				t.Fatalf("parse %q: %v", c.src, err)
			}
			in, e, name = newInference(m), m.Body, c.src
		}
		got := in.infer(e)
		if want := (props{eff: c.eff, kind: c.kind, boolean: c.boolean}); got != want {
			t.Errorf("%s%s:\n   got %s\n  want %s", c.prolog, name, propsString(got), propsString(want))
		}
	}
}

func propsString(p props) string {
	names := []string{"updates", "writes", "scripting", "scripted-call", "sequential-call", "acts-at-once",
		"opaque-call", "module-call", "impure", "resolves", "scores", "constructs", "reads-focus", "reads-position", "reads-last", "reads-scores"}
	s := ""
	for i, n := range names {
		if p.eff&(1<<i) != 0 {
			s += n + " "
		}
	}
	return fmt.Sprintf("{%skind %d boolean %v}", s, p.kind, p.boolean)
}

// TestPropsCoversEveryKind: every expression kind of the ast has a row
// in the table, so a kind added later fails here instead of silently
// getting the fail-safe answer of infer's default.
func TestPropsCoversEveryKind(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "../ast/ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, c := range propsTable {
		e := c.expr
		if e == nil {
			m, err := parser.ParseModule(c.prolog + c.src)
			if err != nil {
				t.Fatal(err)
			}
			e = m.Body
		}
		covered[fmt.Sprintf("%T", e)] = true
	}
	kinds := 0
	for _, d := range f.Decls {
		fd, ok := d.(*goast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "exprNode" {
			continue
		}
		kinds++
		if recv := fd.Recv.List[0].Type.(*goast.Ident).Name; !covered["ast."+recv] {
			t.Errorf("ast.%s has no row in propsTable", recv)
		}
	}
	if kinds < 40 {
		t.Errorf("found %d expression kinds in ast.go; the scan is broken", kinds)
	}
}

// TestUnknownKindFailsSafe: a kind infer does not know sets every bit.
func TestUnknownKindFailsSafe(t *testing.T) {
	type future struct{ ast.Hoisted }
	if got := (&inference{}).infer(future{}).eff; got != ^ast.Effects(0) {
		t.Errorf("an unknown kind infers %b, want every bit", got)
	}
}

// TestModuleReadsScoresThroughItsFunctions: a module can read the
// scores its run records when its body, a global or any declared
// function can — a host calls a listener or local:main() by name, with
// no call in the body — and the function's other effects stay out of
// the module's summary, which routes the store's queries.
func TestModuleReadsScoresThroughItsFunctions(t *testing.T) {
	for _, c := range []struct {
		src    string
		reads  bool
		opaque bool
	}{
		{`//p[. ftcontains "a"]`, false, false},
		{`ft:score(//p[1])`, true, false},
		{`declare variable $s := ft:score(//p[1]); 1`, true, false},
		{`declare function local:f($p) { ft:score($p) }; //p[. ftcontains "a"]`, true, false},
		{`declare function local:f() { local:g() }; declare function local:g() { ft:score(/) }; 1`, true, false},
		{`declare function local:f() { h:ping() }; 1`, true, false},
		{`declare function local:f() { h:ping() }; local:f()`, true, true},
		{`declare function local:f($p) { $p }; //p[. ftcontains "a"]`, false, false},
	} {
		m, err := parser.ParseModule(`declare namespace h = "urn:h"; ` + c.src)
		if err != nil {
			t.Fatal(err)
		}
		Prepare(m)
		if got := ReadsScores(m); got != c.reads {
			t.Errorf("%s: ReadsScores = %v, want %v", c.src, got, c.reads)
		}
		if got := m.Effects&ast.EffOpaqueCall != 0; got != c.opaque {
			t.Errorf("%s: the summary has an opaque call = %v, want %v", c.src, got, c.opaque)
		}
	}
}
