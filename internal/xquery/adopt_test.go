package xquery

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// Constructed content the planner proves fresh is adopted where it used
// to be copied (DESIGN.md §5p). Adoption must be unobservable: node
// identity shows through `is`, through variables bound to constructed
// nodes and through where an inserted node ends up, and every case
// below puts one of those in front of a place that must still copy —
// or that may adopt. The oracle is the same program on the unplanned
// tree, where every Adopt mark has its zero value, "copy": results,
// update primitives and final documents must agree byte for byte.

const adoptDoc = `<r><a id="a"/><b id="b"/><c id="c"/><d id="d"/></r>`

// compileAdopt compiles src twice: as every caller gets it, and with
// the planning pass suppressed.
func compileAdopt(t *testing.T, src string) (planned, unplanned *Program) {
	t.Helper()
	e := New()
	planned, err := e.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsurePlanned(func() {}) // the module's one planning pass: none
	unplanned, err = e.CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	return planned, unplanned
}

// runAdoptOnce runs p on a document of its own and renders everything a
// caller can see of the run (runOutcome), with the run's profile.
func runAdoptOnce(t *testing.T, p *Program) (string, *runtime.Profiler) {
	t.Helper()
	prof := runtime.NewProfiler()
	return runOutcome(t, p, adoptDoc, RunConfig{Profiler: prof}), prof
}

// runAdopt runs src planned and unplanned, fails where the two
// differ, and returns the outcome with the profile of the planned run.
func runAdopt(t *testing.T, src string) (string, *runtime.Profiler) {
	t.Helper()
	planned, unplanned := compileAdopt(t, src)
	want, _ := runAdoptOnce(t, unplanned)
	got, prof := runAdoptOnce(t, planned)
	if got != want {
		t.Errorf("%s\nplanned:          %s\nunplanned oracle: %s", src, got, want)
	}
	return want, prof
}

func TestAdoptionIsUnobservable(t *testing.T) {
	const (
		fnGlobal = `declare variable $g := <g/>; declare function local:g() { $g }; `
		fnParam  = `declare variable $g := <g/>; declare function local:id($p) { $p }; `
		fnMake   = `declare function local:mk($n) { <m n="{$n}"><k/></m> }; `
		fnExit   = `declare variable $g := <g/>;
			declare sequential function local:f($c) { if ($c) then exit returning $g else (); <m/>; }; `
		fnExitOK = `declare sequential function local:f($c) { if ($c) then exit returning <e/> else (); <m/>; }; `
	)
	cases := []struct {
		name, src string
		want      string // the value part of the outcome; "" is not checked
		adopted   int64  // tree nodes the planned run adopted, over all kinds
		copied    int64
	}{
		// A second reference sees the original, so the first must copy.
		{"two references", `let $a := <a/> return <b>{$a}</b>/a is $a`, "false", 0, 1},
		{"two constructors share a variable",
			`let $x := <x/> let $rs := (<r>{$x}</r>, <r>{$x}</r>)
			 return ($rs[1]/x is $rs[2]/x, $rs[1]/x is $x, $rs[2]/x is $x, count($rs/x))`,
			"false false false 2", 0, 2},
		{"the same node twice in one sequence",
			`let $n := <n/> return <r>{($n, $n)}</r>`, "<r><n/><n/></r>", 0, 2},
		{"variable read after it was inserted",
			`{ declare variable $n := <n/>; insert node $n into /r/a; /r/a/n is $n; }`, "false", 0, 1},
		{"let variable read after it was inserted",
			`let $n := <n/> return (insert node $n into /r/a, <seen>{$n}</seen>)`, "<seen><n/></seen>", 0, 2},

		// Functions: a parameter and a global are somebody else's nodes.
		{"function returning a global", fnGlobal + `<b>{local:g()}</b>/g is $g`, "false", 0, 1},
		{"function returning its parameter", fnParam + `<b>{local:id($g)}</b>/g is $g`, "false", 0, 1},
		{"function whose body is a constructor",
			fnMake + `<b>{local:mk(1), local:mk(2)}</b>`, `<b><m n="1"><k/></m><m n="2"><k/></m></b>`, 4, 0},
		{"function with a non-fresh exit",
			fnExit + `(<b>{local:f(true())}</b>/g is $g, <b>{local:f(false())}</b>)`, "false <b><m/></b>", 0, 2},
		{"function with a fresh exit",
			fnExitOK + `(<b>{local:f(true())}</b>, <b>{local:f(false())}</b>)`, "<b><e/></b> <b><m/></b>", 2, 0},

		// A let variable read once, where it is read once: adopted.
		{"single-use let into a constructor",
			`let $v := <v><w/></v> return <r>{$v}</r>`, "<r><v><w/></v></r>", 2, 0},
		{"single-use let into an insert",
			`let $v := <v/> return insert node $v into /r/a`, "", 1, 0},
		{"single-use let into a replace",
			`let $v := if (/r/a) then <v/> else <w/> return replace node /r/b with $v`, "", 1, 0},
		{"let of a let", `let $v := <v/> let $w := ($v, <u/>) return <r>{$w}</r>`, "<r><v/><u/></r>", 2, 0},

		// A let variable read once, but where that may happen many times.
		{"single-use let under a for",
			`let $v := <v/> return for $t in /r/* return insert node $v into $t`, "", 0, 4},
		{"single-use let under a later for clause",
			`let $v := <v/> for $t in /r/* return insert node $v into $t`, "", 0, 4},
		{"single-use let in a predicate",
			`let $v := <v/> return count(/r/*[<w>{$v}</w>/v])`, "4", 0, 4},
		{"single-use let under a quantifier",
			`let $v := <v/> return every $t in /r/* satisfies <w>{$v}</w>/v`, "true", 0, 4},
		{"single-use let in a while body",
			`let $v := <v/> return block { declare variable $i := 0;
			   while ($i < 3) { insert node $v into /r/a; set $i := $i + 1; }; count(/r/a/v); }`,
			"3", 0, 3},
		{"assigned variable",
			`{ declare variable $v := <v/>; set $v := /r/a; insert node $v into /r/b; }`, "", 0, 1},
		{"rebound name",
			`let $v := <v/> return for $v in /r/a return <w>{$v}</w>`, `<w><a id="a"/></w>`, 0, 1},

		// What is not built here is copied whatever surrounds it.
		{"page nodes", `<r>{/r/a, <x/>, /r/b}</r>`, `<r><a id="a"/><x/><b id="b"/></r>`, 0, 3},
		{"page nodes through a fresh shape", `<r>{for $t in /r/* return $t}</r>/a is /r/a`, "false", 0, 4},
		{"for variable over constructors",
			`<r>{for $x in (<x/>, <y/>) return $x}</r>`, "<r><x/><y/></r>", 0, 2},
		{"typeswitch variable",
			`<r>{typeswitch (<x/>) case $e as element() return $e default return ()}</r>`, "<r><x/></r>", 0, 1},
		{"builtin handing its argument through", `<r>{reverse((<x/>, <y/>))}</r>`, "<r><y/><x/></r>", 0, 2},
		{"document node content", `<r>{document { <x/>, "t" }}</r>`, "<r><x/>t</r>", 1, 1},

		// Nested constructors: every level adopts, text stays normal.
		{"nested literal children", `<div><h1>x{1}{"y"}</h1> <p/>{()}<!--c--></div>`, `<div><h1>x1y</h1><p/><!--c--></div>`, 3, 0},
		{"text around adopted and copied nodes",
			`<r>a{"b"}{<x/>}{"c"}d{/r/a}{"e", "f"}{text { "g" }}</r>`, `<r>ab<x/>cd<a id="a"/>e fg</r>`, 1, 1},
		{"computed constructors",
			`element r { attribute k { "v" }, element x { () }, comment { "c" }, processing-instruction p { "d" } }`,
			`<r k="v"><x/><!--c--><?p d?></r>`, 3, 0},
		{"attribute after content", `<r>{<x/>, attribute k { "v" }}</r>`, "", 0, 0},
		{"duplicate attribute", `<r k="1">{attribute k { "v" }}</r>`, "", 0, 0},
		{"attributes and children into an insert",
			`insert nodes (attribute k { "v" }, <x/>, "t", <y/>) into /r/a`, "", 2, 0},
		{"the table",
			`insert node <table>{for $i in 1 to 3 return <tr>{for $j in 1 to 3 return <td id="c{$i}x{$j}">{$i * $j}</td>}</tr>}</table> into /r/d`,
			"", 13, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, prof := runAdopt(t, tc.src)
			if value, _, _ := strings.Cut(got, " | "); tc.want != "" && value != tc.want {
				t.Errorf("%s\n = %s, want %s", tc.src, value, tc.want)
			}
			var adopted, copied int64
			for _, kind := range []string{"DirElem", "CompConstructor", "Insert", "Replace"} {
				adopted += prof.Count("content:" + kind + ".adopted")
				copied += prof.Count("content:" + kind + ".copied")
			}
			if adopted != tc.adopted || copied != tc.copied {
				t.Errorf("%s\nadopted %d and copied %d tree nodes, want %d and %d",
					tc.src, adopted, copied, tc.adopted, tc.copied)
			}
		})
	}
}

// pendingAdopted evaluates src on doc through the walker and returns the
// context, its pending update list unapplied, with the list's content
// nodes.
func pendingAdopted(t *testing.T, src string, doc *dom.Node) (*runtime.Context, []*dom.Node) {
	t.Helper()
	p, err := New().Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.NewContext(RunConfig{ContextItem: xdm.NewNode(doc)})
	if _, err := ctx.RunModule(); err != nil {
		t.Fatal(err)
	}
	var content []*dom.Node
	for _, pr := range ctx.PUL.Primitives() {
		content = append(content, pr.Content...)
	}
	return ctx, content
}

// TestAdoptedContentSurvivesRollback: an adopted tree is in the pending
// list itself, not a copy of it, so a rollback has to leave it as it
// found it — detached, whole, and in nobody's child list.
func TestAdoptedContentSurvivesRollback(t *testing.T) {
	defer faultpoint.Reset()
	doc, err := markup.Parse(adoptDoc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, content := pendingAdopted(t, `(
		insert node <x><y/>t</x> into /r/a,
		let $v := <v/> return replace node /r/b with $v,
		insert node <z/> before /r/c)`, doc)
	if len(content) != 3 {
		t.Fatalf("%d content nodes, want 3", len(content))
	}
	before := make([]string, len(content))
	for i, c := range content {
		before[i] = markup.Serialize(c)
	}
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(3))
	if _, _, err := ctx.Finish("test", func() (xdm.Sequence, error) { return nil, nil }); err == nil {
		t.Fatal("apply succeeded under the armed fault")
	}
	if got := markup.Serialize(doc); got != adoptDoc {
		t.Errorf("document after rollback:\n %s\nwant\n %s", got, adoptDoc)
	}
	for i, c := range content {
		if c.Parent() != nil {
			t.Errorf("content %s is still attached to %s", before[i], nodePath(c.Parent()))
		}
		if got := markup.Serialize(c); got != before[i] {
			t.Errorf("content %s came back as %s", before[i], got)
		}
		doc.Walk(func(n *dom.Node) bool {
			if n == c {
				t.Errorf("content %s is reachable from the document", before[i])
			}
			return true
		})
	}
}

// TestAdoptedContentPassesTheAliasingGuard: update.Primitive.Content
// promises detached trees nothing else references — what makes an
// insert's undo a plain detach. Adopted content has to meet that exactly like
// copied content: a detached root no primitive targets, nothing shared
// between primitives.
func TestAdoptedContentPassesTheAliasingGuard(t *testing.T) {
	const src = `for $t in /r/* return insert node <n of="{$t/@id}"><k/></n> into $t`
	doc, err := markup.Parse(adoptDoc)
	if err != nil {
		t.Fatal(err)
	}
	_, content := pendingAdopted(t, src, doc)
	seen := map[*dom.Node]bool{}
	for _, c := range content {
		if c.Parent() != nil || seen[c] || c.Root() == doc {
			t.Errorf("content %s is attached, shared or in the target tree", markup.Serialize(c))
		}
		seen[c] = true
	}
	if len(content) != 4 {
		t.Fatalf("%d content nodes, want 4", len(content))
	}
	planned, unplanned := compileAdopt(t, src)
	_, pp := runAdoptOnce(t, planned)
	_, up := runAdoptOnce(t, unplanned)
	if pp.Count("content:Insert.adopted") != 4 || up.Count("content:Insert.copied") != 4 {
		t.Errorf("planned run adopted %d, unplanned run copied %d, want 4 and 4",
			pp.Count("content:Insert.adopted"), up.Count("content:Insert.copied"))
	}
}
