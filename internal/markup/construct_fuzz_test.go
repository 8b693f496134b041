package markup_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/parser"
)

// constructDoc is the context document of a generated constructor: the
// nodes its paths copy.
const constructDoc = `<r><a id="a">x<b>y</b>z<!--c--></a><b id="b" k="1"/><c>p<?q d?></c></r>`

// constructProlog declares the function whose constructed result a
// generated constructor places as it is.
const constructProlog = `declare function local:mk($n) { <m n="{$n}"><k/>t{$n}</m> }; `

// constructGen turns fuzz bytes into a direct element constructor:
// enclosed FLWORs, if branches, text pieces, attribute value templates,
// atomics, nested constructors, computed ones, copied page nodes, a
// document's children and function results and let values that are
// placed as they are. The bytes pick; a spent input picks zeros.
type constructGen struct {
	in    []byte
	loops int // the FLWOR variables in scope: $i0 … $i(loops-1)
}

func (g *constructGen) pick(n int) int {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return int(b) % n
}

// number is an integer expression: a loop variable in scope or a
// literal.
func (g *constructGen) number() string {
	if g.loops > 0 && g.pick(2) == 0 {
		return fmt.Sprintf("$i%d", g.pick(g.loops))
	}
	return fmt.Sprint(g.pick(5))
}

func (g *constructGen) elem(depth int) string {
	var b strings.Builder
	name := []string{"a", "b", "td", "p:e"}[g.pick(4)]
	b.WriteString("<" + name)
	if name == "p:e" {
		b.WriteString(` xmlns:p="urn:p"`)
	}
	for i, attr := range []string{"id", "k"} {
		if g.pick(2+i) != 0 {
			continue
		}
		b.WriteString(" " + attr + `="`)
		for n := g.pick(3) + 1; n > 0; n-- {
			switch g.pick(4) {
			case 0:
				b.WriteString("v&amp;")
			case 1:
				b.WriteString("{" + g.number() + "}")
			case 2:
				b.WriteString("{/r/a/@id}")
			default:
				b.WriteString(`{("s", ` + g.number() + `)}`)
			}
		}
		b.WriteString(`"`)
	}
	b.WriteString(">")
	for n := g.pick(4); n > 0; n-- {
		b.WriteString(g.content(depth))
	}
	b.WriteString("</" + name + ">")
	return b.String()
}

// content is one piece of an element's content.
func (g *constructGen) content(depth int) string {
	if depth > 3 {
		return "w"
	}
	switch g.pick(11) {
	case 0:
		return []string{"x", "y z", "&lt;&amp;", " "}[g.pick(4)]
	case 1:
		return "{" + []string{g.number(), `"s"`, "()", `""`, "1.5", "(1, " + g.number() + ")"}[g.pick(6)] + "}"
	case 2:
		return g.elem(depth + 1)
	case 3:
		v := g.loops
		g.loops++
		defer func() { g.loops-- }()
		return fmt.Sprintf("{for $i%d in 1 to %d return %s}", v, g.pick(4), g.item(depth+1))
	case 4:
		return "{" + []string{"/r/a", "/r/a/node()", "/r//b", "/r/c/node()", "/r/b/@k"}[g.pick(5)] + "}"
	case 5:
		return "{local:mk(" + g.number() + ")}"
	case 6:
		return "{let $v := " + g.elem(depth+1) + " return $v}"
	case 7:
		return "{if (" + g.number() + " mod 2 = 0) then " + g.item(depth+1) + " else " + g.item(depth+1) + "}"
	case 8:
		return "{" + []string{`text {"t"}`, `comment {"c"}`, `processing-instruction p {"d"}`, `element q {"e"}`}[g.pick(4)] + "}"
	case 9:
		return "{document { " + g.item(depth+1) + `, "t" }}`
	default:
		return "{(" + g.item(depth+1) + ", " + g.item(depth+1) + ")}"
	}
}

// item is an expression inside an enclosed expression.
func (g *constructGen) item(depth int) string {
	switch g.pick(4) {
	case 0:
		return g.number()
	case 1:
		return `"u"`
	case 2:
		return "local:mk(" + g.number() + ")"
	}
	return g.elem(depth)
}

// FuzzConstructThenMutate: a constructed tree — recorded, then built
// through one dom.Builder, with copied page nodes carved from its
// blocks and fresh function results placed in it as they are —
// serializes as the unplanned run's tree, in which every node is
// copied; every list of it is as long as its capacity; and it takes any
// sequence of dom mutations as the oracle parser's tree of its
// serialization does.
func FuzzConstructThenMutate(f *testing.F) {
	f.Add([]byte{3, 2, 0, 2, 1, 5, 0}, []byte{0, 1, 0, 0, 2, 1, 6, 1, 1})
	f.Add([]byte{0, 0, 0, 2, 3, 3, 2, 2, 1, 0, 0, 1, 1, 1, 3, 4, 1, 5, 1, 2}, []byte{0, 1, 2, 5, 2, 0, 4, 3, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 3, 6, 0, 3, 1, 2, 0, 9, 3, 10, 2, 3, 4, 2, 7, 1, 3, 2}, []byte{2, 3, 0, 3, 2, 1, 7, 1, 0, 6, 2, 2, 1, 4, 5})
	f.Add([]byte{2, 0, 1, 0, 1, 2, 3, 3, 8, 2, 8, 3, 4, 1, 4, 3, 3, 9, 0}, []byte{6, 1, 0, 6, 1, 1, 6, 1, 2, 7, 1, 0, 0, 1, 1})
	e := xquery.New()
	f.Fuzz(func(t *testing.T, in, prog []byte) {
		if len(in) > 1<<8 || len(prog) > 3<<6 {
			return
		}
		g := constructGen{in: in}
		src := constructProlog + g.elem(0)
		planned, err := e.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		m, err := parser.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		m.EnsurePlanned(func() {}) // no planning pass: every Adopt mark says copy
		unplanned, err := e.CompileModule(m)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := constructRun(t, planned)
		want, werr := constructRun(t, unplanned)
		if gerr != nil || werr != nil {
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, unplanned %v", src, gerr, werr)
			}
			return
		}
		if s, w := markup.Serialize(got), markup.Serialize(want); s != w {
			t.Fatalf("%s:\n got %s\nwant %s (unplanned)", src, s, w)
		}
		for _, built := range []*dom.Node{got, want} {
			if err := markup.ExactLists(built); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
		doc, err := markup.OracleParse(markup.Serialize(got), markup.XML)
		if err != nil {
			t.Fatalf("%s: the oracle cannot read %s: %v", src, markup.Serialize(got), err)
		}
		oracle := doc.DocumentElement()
		oracle.Detach()
		dropDeclarations(oracle)
		if err := markup.SameTree(got, oracle); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		markup.MutateBoth(t, got, oracle, prog)
	})
}

// dropDeclarations removes the namespace declaration attributes of n's
// subtree, which the writer adds to a constructed tree's serialization:
// a constructor's namespace declarations are in scope, not attributes.
func dropDeclarations(n *dom.Node) {
	n.Walk(func(e *dom.Node) bool {
		for _, a := range slices.Clone(e.Attrs()) {
			if a.Name.Space == markup.XMLNSNamespace {
				e.RemoveAttr(a.Name)
			}
		}
		return true
	})
}

// constructRun runs a generated constructor on a parse of constructDoc
// and returns the element it built.
func constructRun(t *testing.T, p *xquery.Program) (*dom.Node, error) {
	d, err := markup.Parse(constructDoc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(xquery.RunConfig{ContextItem: xdm.NewNode(d)})
	if err != nil {
		return nil, err
	}
	n, ok := xdm.IsNode(res.Value[0])
	if len(res.Value) != 1 || !ok {
		t.Fatalf("the constructor returned %v", res.Value)
	}
	return n, nil
}

// A parsed fragment and the same markup written as a direct constructor
// are recorded and built alike: the same tree, every list as long as its
// capacity (a constructor's namespace declarations are in scope, not
// attributes).
func TestFragmentBuildsAsItsConstructor(t *testing.T) {
	e := xquery.New()
	for _, src := range []string{
		`<a x="1" y="&amp;&lt;">t<b/>u<!--c--><?p d?></a>`,
		`<table><tr><td id="c1">1</td><td id="c2">2</td></tr></table>`,
		`<p:e xmlns:p="urn:p" p:k="v"><p:f/>x</p:e>`,
		`<a xmlns="urn:d"><b xmlns="">y</b></a>`,
	} {
		nodes, err := markup.ParseFragment(src)
		if err != nil || len(nodes) != 1 {
			t.Fatalf("%s: %v %v", src, nodes, err)
		}
		p, err := e.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		built, err := constructRun(t, p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		parsed := nodes[0]
		for _, n := range []*dom.Node{built, parsed} {
			if err := markup.ExactLists(n); err != nil {
				t.Errorf("%s: %v", src, err)
			}
		}
		dropDeclarations(parsed)
		if err := markup.SameTree(built, parsed); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}
