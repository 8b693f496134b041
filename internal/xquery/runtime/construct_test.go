package runtime_test

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// runOn runs the main module src with doc as its context item and
// applies its pending updates. It returns the ctx it ran in (for what
// a failed run left behind) and the nodes the module returned.
func runOn(t *testing.T, doc *dom.Node, src string) (*runtime.Context, []*dom.Node, error) {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := runtime.Compile(m, runtime.CompileConfig{Registry: funclib.Library()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := runtime.NewContext(prog)
	ctx.Item, ctx.Pos, ctx.Size = xdm.NewNode(doc), 1, 1
	val, err := ctx.RunModule()
	if err != nil {
		return ctx, nil, err
	}
	if ctx.PUL != nil {
		if err := ctx.PUL.Apply(nil); err != nil {
			return ctx, nil, err
		}
	}
	var out []*dom.Node
	for _, it := range val {
		if n, ok := xdm.IsNode(it); ok {
			out = append(out, n)
		}
	}
	return ctx, out, nil
}

func TestFailedConstructionBuildsNothing(t *testing.T) {
	const (
		mk  = `declare function local:mk($i) { <m n="{$i}"><k/></m> }; `
		doc = `<r><a id="a">x<b>y</b>z</a></r>`
	)
	run := func(src string) (string, error) {
		d, err := markup.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		ctx, val, err := runOn(t, d, mk+src)
		if err != nil {
			if ctx.PUL != nil && !ctx.PUL.Empty() {
				t.Errorf("%s: the failed run left %d pending primitives", src, len(ctx.PUL.Primitives()))
			}
			if got := markup.Serialize(d); got != doc {
				t.Errorf("%s: the failed run changed the document to %s", src, got)
			}
			return "", err
		}
		out := ""
		for _, n := range val {
			out += markup.Serialize(n)
		}
		return out, nil
	}
	for _, tc := range []struct{ src, err string }{
		{`<r a="1">{for $i in 1 to 3 return attribute {concat("b", $i)} {$i}, attribute a {2}}</r>`,
			"xquery: duplicate attribute a"},
		{`<r a="1">{for $i in 1 to 3 return local:mk($i), attribute b {2}}</r>`,
			"xquery: attribute b constructed after element content"},
		{`insert nodes (for $i in 1 to 3 return local:mk($i), <x a="1">{attribute a {2}}</x>) into /r`,
			"xquery: duplicate attribute a"},
		{`<r>{for $i in 1 to 3 return local:mk($i)}{error(xs:QName("local:e"), "boom")}</r>`,
			"boom"},
		{`insert node <r>{for $i in 1 to 3 return <c n="{$i}">{local:mk($i)}</c>}{error(xs:QName("local:e"), "boom")}</r> into /r`,
			"boom"},
		{`replace node /r/a with (/r/a/b, local:mk(1), <x>{/r/a}{1 idiv 0}</x>)`,
			"xdm: integer division by zero"},
		{`element {error(xs:QName("local:e"), "no name")} {for $i in 1 to 3 return local:mk($i), attribute a {1}}`,
			"no name"},
	} {
		if _, err := run(tc.src); err == nil || err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.err)
		}
		if held := runtime.PooledRecorderHolds(); held != 0 {
			t.Errorf("%s: the pooled recorder holds %d records and nodes of the failed construction", tc.src, held)
		}
		const want = `<r><m n="1"><k/></m><c><a id="a">x<b>y</b>z</a></c></r>`
		if got, err := run(`<r>{local:mk(1)}<c>{/r/a}</c></r>`); err != nil || got != want {
			t.Errorf("after %s: %s %v, want %s", tc.src, got, err, want)
		}
	}
}

// TestCopyIsTakenAfterItsExpression: a constructor, insert or replace
// copies a page node once the content expression that yields it has
// been evaluated whole, so what a later part of the same expression does
// to the node — a sequential call, a block statement — shows in the
// copy, and what a later content expression does does not. The wanted
// results are what the node-by-node construction gave.
func TestCopyIsTakenAfterItsExpression(t *testing.T) {
	const s = `declare sequential function local:s($b, $v) { replace value of node $b with $v; () }; `
	for _, tc := range []struct{ src, want string }{
		{s + `<a>{(/r/b, local:s(/r/b, "x"))}</a>`, `<a><b>x</b></a>`},
		{s + `<a>{for $i in 1 to 2 return (/r/b, local:s(/r/b, $i))}</a>`, `<a><b>2</b><b>2</b></a>`},
		{s + `<a>{if (/r) then (/r/b, local:s(/r/b, "x")) else ()}</a>`, `<a><b>x</b></a>`},
		{s + `<a>{(/r/b, <i>{local:s(/r/b, "x")}</i>)}</a>`, `<a><b>x</b><i/></a>`},
		{s + `element a {(/r/b, local:s(/r/b, "x"))}`, `<a><b>x</b></a>`},
		{`<a>{(/r/b, { replace value of node /r/b with "y"; () })}</a>`, `<a><b>y</b></a>`},
		{s + `<a>{for $i in 1 to 2 return <i>{(/r/b, local:s(/r/b, $i))}</i>}</a>`, `<a><i><b>1</b></i><i><b>2</b></i></a>`},
		{s + `<a>{/r/b}{local:s(/r/b, "x")}</a>`, `<a><b>o</b></a>`},
		{s + `<a>{(<i>{/r/b}</i>, local:s(/r/b, "x"))}</a>`, `<a><i><b>o</b></i></a>`},
		{s + `{ insert node (/r/b, local:s(/r/b, "x")) into /r; /r }`, `<r><b>x</b><b>x</b></r>`},
	} {
		d, err := markup.Parse(`<r><b>o</b></r>`)
		if err != nil {
			t.Fatal(err)
		}
		_, val, err := runOn(t, d, tc.src)
		if err != nil || len(val) != 1 {
			t.Errorf("%s: %d nodes, %v", tc.src, len(val), err)
			continue
		}
		if got := markup.Serialize(val[0]); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.src, got, tc.want)
		}
	}
}

// TestCopyMergesSplitText: a copied node comes out in constructed normal
// form at every level — adjacent text children one node, empty ones
// gone — through a constructor and through an insert alike.
func TestCopyMergesSplitText(t *testing.T) {
	for _, src := range []string{`<a>{/r/b}</a>/b`, `{ insert node /r/b into /r; /r/b[2] }`} {
		d, err := markup.Parse(`<r><b>x<c>p</c></b></r>`)
		if err != nil {
			t.Fatal(err)
		}
		b := d.FirstChild().FirstChild()
		c := b.LastChild()
		for _, split := range []struct {
			n    *dom.Node
			data string
		}{{b, ""}, {b, "y"}, {b, ""}, {c, ""}, {c, "q"}} {
			if err := split.n.AppendChild(dom.NewText(split.data)); err != nil {
				t.Fatal(err)
			}
		}
		_, val, err := runOn(t, d, src)
		if err != nil || len(val) == 0 {
			t.Fatalf("%s: %d nodes, %v", src, len(val), err)
		}
		cp := val[len(val)-1]
		if cp == b {
			t.Fatalf("%s: got the page node, want its copy", src)
		}
		if got := markup.Serialize(cp); got != `<b>x<c>pq</c>y</b>` {
			t.Errorf("%s: copy %s", src, got)
		}
		kids := cp.Children()
		if len(kids) != 3 || kids[0].Data != "x" || kids[2].Data != "y" {
			t.Fatalf("%s: the copy has %d children, want x, <c>, y", src, len(kids))
		}
		if ckids := kids[1].Children(); len(ckids) != 1 || ckids[0].Data != "pq" {
			t.Errorf("%s: the copy's <c> has %d children, want one text pq", src, len(ckids))
		}
	}
}
