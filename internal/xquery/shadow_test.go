package xquery

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
)

// shadowingCases shadow a variable name at each consumer of the binding
// table: one binding is read where another of the same name is in
// scope, or bound nearby. Which binding a reference reads is the
// parser's decision, so a same-named binding blocks no rule; decide
// reports what the prepared module decided, want what it should be.
var shadowingCases = []struct {
	name, src, want string
	decide          func(m *ast.Module) string
}{
	{
		name:   "hoisted let",
		src:    `for $b in //book let $a := (for $b in //author return string($b)) return concat($b/@id, count($a))`,
		want:   "hoists 1",
		decide: func(m *ast.Module) string { return fmt.Sprintf("hoists %d", m.Rewrites.Hoists) },
	},
	{
		name:   "pushed-down where",
		src:    `for $b in //book where some $b in $b/author satisfies $b = "Knuth" return $b/@id/string()`,
		want:   "pushdowns 1",
		decide: func(m *ast.Module) string { return fmt.Sprintf("pushdowns %d", m.Rewrites.Pushdowns) },
	},
	{
		name: "shipped FLWOR",
		src:  `let $a := "outer" return for $a in collection("c")//book where $a/@year > 2000 return string($a/@id)`,
		want: `shipped "for $a in descendant::book where $a/attribute::year > 2000 return fn:string($a/attribute::id)"`,
		decide: func(m *ast.Module) string {
			f := findExpr(m.Body, func(e ast.Expr) bool { x, ok := e.(ast.FLWOR); return ok && x.Ship != nil })
			if f == nil {
				return "not shipped"
			}
			return fmt.Sprintf("shipped %q", f.(ast.FLWOR).Ship.Src)
		},
	},
	{
		name:   "fresh let, adopted",
		src:    `let $v := <n/> return (insert node $v into (//book)[1], let $v := <m/> return insert node $v into (//book)[2])`,
		want:   "adopt true, adopt true",
		decide: adoptions,
	},
	{
		name:   "fresh let, copied",
		src:    `let $v := <n/> return (insert node $v into (//book)[1], let $w := <m/> return insert node ($v, $w) into (//book)[2])`,
		want:   "adopt false, adopt false",
		decide: adoptions,
	},
	{
		name: "key beside an assigned variable",
		src:  `{ declare variable $v := "b1"; set $v := "b2"; (let $v := "b3" return //book[@id = $v]/title/string(), $v); }`,
		want: "index-id",
		decide: func(m *ast.Module) string {
			p := findExpr(m.Body, func(e ast.Expr) bool { x, ok := e.(ast.Path); return ok && len(x.Steps) > 0 })
			return p.(ast.Path).Steps[0].Access.String()
		},
	},
	{
		name: "unread parameter beside a local",
		src:  `declare function local:f($a, $b) { let $a := 1 return $a + count($b) }; local:f(//book, //author)`,
		want: "reads true true",
		decide: func(m *ast.Module) string {
			f := runtime.CompileFunctions(m).Lookup(dom.QName{Space: parser.LocalNamespace, Local: "f"}, 2)
			return fmt.Sprintf("reads %v %v", f.Reads(0), f.Reads(1))
		},
	},
}

// adoptions lists whether each insert adopts its source.
func adoptions(m *ast.Module) string {
	out := ""
	findExpr(m.Body, func(e ast.Expr) bool {
		if x, ok := e.(ast.Insert); ok {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("adopt %v", x.Adopt)
		}
		return false
	})
	return out
}

// findExpr returns the first expression under e, e included, that is
// holds for, in evaluation order.
func findExpr(e ast.Expr, is func(ast.Expr) bool) ast.Expr {
	if e == nil || is(e) {
		return e
	}
	var found ast.Expr
	ast.EachChild(e, func(c ast.Expr) {
		if found == nil {
			found = findExpr(c, is)
		}
	})
	return found
}

// TestShadowedNamesBlockNoRule: each row gets the decision its exact
// binding allows, and runs byte-identically — value, applied
// primitives, final document — on the optimized roots, on the planned
// roots (the annotate-only oracle) and without indexes.
func TestShadowedNamesBlockNoRule(t *testing.T) {
	e := New()
	collections := runtime.CollectionResolver(func(string) ([]*dom.Node, error) {
		doc, err := markup.Parse(libraryXML)
		return []*dom.Node{doc}, err
	})
	for _, c := range shadowingCases {
		m, err := parser.ParseModule(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m.EnsurePlanned(func() { plan.Prepare(m) })
		if got := c.decide(m); got != c.want {
			t.Errorf("%s: decided %s, want %s", c.name, got, c.want)
		}
		opt, err := e.Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		oracle, err := compileOracle(t, e, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfg := RunConfig{MaxSteps: 500_000, Now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), Collections: collections}
		want := runOutcome(t, opt, libraryXML, cfg)
		noIndex := cfg
		noIndex.DisableIndexes = true
		for i, got := range []string{runOutcome(t, oracle, libraryXML, cfg), runOutcome(t, opt, libraryXML, noIndex)} {
			if got != want {
				t.Errorf("%s: run %d differs\n got %s\nwant %s", c.name, i, got, want)
			}
		}
	}
}
