package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// adoptMarks renders every adoption mark under e in evaluation order:
// name(marks) for a direct constructor with enclosed content, one + or
// - per enclosed expression; computed(±), insert(±), replace(±) for
// the others.
func adoptMarks(e ast.Expr, out *[]string) {
	sign := func(b bool) string {
		if b {
			return "+"
		}
		return "-"
	}
	switch x := e.(type) {
	case ast.DirElem:
		marks := ""
		for i, c := range x.Content {
			if _, text := c.(ast.StringLit); !text {
				marks += sign(x.AdoptContent(i))
			}
		}
		if marks != "" {
			*out = append(*out, x.Name.Local+"("+marks+")")
		}
	case ast.CompConstructor:
		if x.Content != nil {
			*out = append(*out, "computed("+sign(x.Adopt)+")")
		}
	case ast.Insert:
		*out = append(*out, "insert("+sign(x.Adopt)+")")
	case ast.Replace:
		*out = append(*out, "replace("+sign(x.Adopt)+")")
	}
	ast.EachChild(e, func(c ast.Expr) { adoptMarks(c, out) })
}

func TestFreshClassifier(t *testing.T) {
	const (
		mk    = `declare function local:mk() { <m/> }; `
		viaMk = `declare function local:via() { (local:mk(), <n/>) }; `
		id    = `declare function local:id($p) { $p }; `
		glob  = `declare variable $g := <g/>; declare function local:g() { $g }; `
		rec   = `declare function local:rec($n) { if ($n) then <m/> else local:rec($n - 1) }; `
		exitG = `declare variable $g := <g/>; declare sequential function local:ex($c) { if ($c) then exit returning $g else (); <m/>; }; `
		exitM = `declare sequential function local:ex($c) { if ($c) then exit returning <e/> else (); <m/>; }; `
		exitN = `declare variable $g := <g/>; declare function local:ex() { <m>{exit returning $g}</m> }; `
		letFn = `declare function local:lf() { let $x := <m/> return $x }; `
		dupFn = `declare function local:df() { let $x := <m/> return ($x, $x) }; `
	)
	for _, c := range []struct{ src, want string }{
		// Constructors, nested literal children included; literals.
		{`<a>{<b/>}</a>`, "a(+)"},
		{`<a><b/><c>{1}</c>t</a>`, "a(++) c(+)"},
		{`<a>{element b { <c/> }}{text { "t" }}{comment { "c" }}{1}</a>`, "a(++++) computed(+) computed(+) computed(+)"},
		{`element a { <b/>, /x }`, "computed(-)"},
		{`document { <b/> }`, "computed(+)"},
		{`element a { () }`, "computed(+)"},
		// Shapes that pass their operands on.
		{`<a>{<b/>, <c/>, ()}</a>`, "a(+)"},
		{`<a>{<b/>, /x}</a>`, "a(-)"},
		{`<a>{ordered { <b/> }}</a>`, "a(+)"},
		{`<a>{if (/x) then <b/> else <c/>}</a>`, "a(+)"},
		{`<a>{if (/x) then <b/> else ()}</a>`, "a(+)"},
		{`<a>{if (/x) then <b/> else /y}</a>`, "a(-)"},
		{`<a>{typeswitch (/x) case element() return <b/> default return <c/>}</a>`, "a(+)"},
		{`<a>{typeswitch (/x) case $e as element() return $e default return <c/>}</a>`, "a(-)"},
		{`<a>{for $i in 1 to 3 order by $i return <b>{$i}</b>}</a>`, "a(+) b(-)"},
		{`<a>{for $x in /x return $x}</a>`, "a(-)"},
		{`<a>{for $x in (<b/>, <c/>) return $x}</a>`, "a(-)"},
		{`<a>{block { /x; <b/>; }}</a>`, "a(+)"},
		{`<a>{block { <b/>; /x; }}</a>`, "a(-)"},
		// Everything else.
		{`<a>{/x}{.}{/x/y | /x/z}{<b><c/></b>/c}{reverse(<b/>)}{1 + 1}</a>`, "a(------) b(+)"},
		{`declare variable $g := <g/>; <a>{$g}</a>`, "a(-)"},
		{`declare variable $e external; <a>{$e}</a>`, "a(-)"},
		{`insert node <b/> into /x`, "insert(+)"},
		{`insert node /y into /x`, "insert(-)"},
		{`replace node /x with <b/>`, "replace(+)"},
		{`replace node /x with /y`, "replace(-)"},
		{`replace value of node /x with <b/>`, "replace(-)"},
		// Same-module functions: the least fixpoint over their bodies.
		{mk + `<a>{local:mk()}</a>`, "a(+)"},
		{mk + viaMk + `<a>{local:via()}</a>`, "a(+)"},
		{mk + `<a>{local:mk(1)}</a>`, "a(-)"}, // another arity: not the declared function
		{id + `<a>{local:id(<b/>)}</a>`, "a(-)"},
		{glob + `<a>{local:g()}</a>`, "a(-)"},
		{rec + `<a>{local:rec(3)}</a>`, "a(-)"},
		{exitM + `<a>{local:ex(1)}</a>`, "a(+)"},
		{exitG + `<a>{local:ex(1)}</a>`, "a(-)"},
		{exitN + `<a>{local:ex()}</a>`, "m(-) a(-)"},
		{letFn + `<a>{local:lf()}</a>`, "a(+)"},
		{dupFn + `<a>{local:df()}</a>`, "a(-)"},
		{`declare function local:ext() external; <a>{local:ext()}</a>`, "a(-)"},
		// Let variables: fresh value, one reference, read at most once.
		{`let $v := <b/> return <a>{$v}</a>`, "a(+)"},
		{`let $v := <b/> return insert node $v into /x`, "insert(+)"},
		{`let $v := if (/x) then <b/> else <c/> return replace node /x with $v`, "replace(+)"},
		{`let $v := <b/> let $w := ($v, <c/>) return <a>{$w}</a>`, "a(+)"},
		{`let $v := <b/> return <a>{let $w := <c/> return ($v, $w)}</a>`, "a(+)"},
		{`let $k := 1 let $v := <b/> let $j := 2 return (<a>{$v}</a>, $k, $j)`, "a(+)"},
		{`let $v := <b/> return <a>{if (/x) then $v else <c/>}</a>`, "a(+)"},
		{`let $v := <b/> return (/x, <a>{($v)}</a>)[2]`, "a(+)"},
		{`let $v := /x return <a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> return (<a>{$v}</a>, $v)`, "a(-)"},
		{`let $v := <b/> return (<a>{$v}</a>, <c>{$v}</c>)`, "a(-) c(-)"},
		{`let $v := <b/> return (insert node $v into /x, count($v))`, "insert(-)"},
		{`let $v := <b/> return for $i in 1 to 2 return <a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> for $i in 1 to 2 return <a>{$v}</a>`, "a(-)"},
		{`for $i in 1 to 2 let $v := <b/> return <a>{$v}</a>`, "a(+)"},
		{`let $v := <b/> return /x[<a>{$v}</a>]`, "a(-)"},
		{`let $v := <b/> return /x/<a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> return <a>{$v}</a>/b`, "a(+)"},
		{`let $v := <b/> return some $x in /x satisfies <a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> return some $x in <a>{$v}</a> satisfies $x`, "a(+)"},
		{`let $v := <b/> return block { while (/x) { insert node $v into /x; }; }`, "insert(-)"},
		{`let $v := <b/> return block { set $v := /x; insert node $v into /x; }`, "insert(-)"},
		{`let $v := <b/> return for $v in /x return <a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> return let $v := /x return <a>{$v}</a>`, "a(-)"},
		{`let $v := <b/> return typeswitch (/x) case $v as element() return <a>{$v}</a> default return ()`, "a(-)"},
		{`let $v := <b/> return /x[. ftcontains { <a>{$v}</a> }]`, "a(-)"},
		{`let $v := <b/> return on event "click" behind /x/<a>{$v}</a> attach listener local:l`, "a(-)"},
		{`{ declare variable $v := <b/>; <a>{$v}</a>; }`, "a(-)"},
	} {
		m, err := parser.ParseModule(c.src)
		if err != nil {
			t.Errorf("parse %q: %v", c.src, err)
			continue
		}
		m.EnsurePlanned(func() { Annotate(m) })
		var marks []string
		for _, f := range m.Prolog.Functions {
			adoptMarks(f.Body, &marks)
		}
		adoptMarks(m.Body, &marks)
		if got := strings.Join(marks, " "); got != c.want {
			t.Errorf("%s\n  marks %s, want %s", c.src, got, c.want)
		}
		// The optimizer's copy keeps every mark.
		var optimized []string
		for _, f := range m.Prolog.Functions {
			adoptMarks(Optimize(f.Body, nil), &optimized)
		}
		adoptMarks(Optimize(m.Body, nil), &optimized)
		if !reflect.DeepEqual(optimized, marks) {
			t.Errorf("%s\n  optimized marks %v, planned %v", c.src, optimized, marks)
		}
	}
}

func TestCopiedLets(t *testing.T) {
	v := dom.Name("v")
	for _, c := range []struct {
		src  string
		want []CopiedLet
	}{
		{`let $v := <b/> return (<a>{$v}</a>, $v)`, []CopiedLet{{Var: v, At: ast.Pos{Line: 1, Col: 28}, Refs: 2}}},
		{`let $v := <b/> return (insert node $v into /x, replace node /y with $v, $v)`,
			[]CopiedLet{{Var: v, At: ast.Pos{Line: 1, Col: 36}, Refs: 3}, {Var: v, At: ast.Pos{Line: 1, Col: 69}, Refs: 3}}},
		{`let $v := <b/> return <a>{$v}</a>`, nil},                         // adopted
		{`let $v := /x return (<a>{$v}</a>, $v)`, nil},                     // not a constructor's
		{`let $v := <b/> return for $i in 1 to 2 return <a>{$v}</a>`, nil}, // copied, but for another reason
		{`let $v := <b/> return (<a>{$v, 1}</a>, $v)`, nil},                // not the operand itself
	} {
		m, err := parser.ParseModule(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		for pass := 0; pass < 2; pass++ { // on the parsed and on the planned module
			if got := CopiedLets(m); !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s (pass %d)\n  = %+v, want %+v", c.src, pass, got, c.want)
			}
			m.EnsurePlanned(func() { Annotate(m) })
		}
	}
}
