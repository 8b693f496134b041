package markup

import (
	"fmt"
	"testing"

	"repro/internal/dom"
)

// preorder lists the document and every node below it but attributes,
// in document order: how a mutation program names the nodes of two
// trees that must stay the same.
func preorder(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	n.Walk(func(c *dom.Node) bool {
		out = append(out, c)
		return true
	})
	return out
}

// exactLists reports a list of a built tree that has room to spare: the
// builder carves every list at the capacity of its length, so that an
// append reallocates it instead of writing into the next list's slots.
func exactLists(n *dom.Node) error {
	if len(n.Children()) != cap(n.Children()) || len(n.Attrs()) != cap(n.Attrs()) {
		return fmt.Errorf("<%s>: children %d/%d, attributes %d/%d; want each list as long as its capacity",
			n.Name, len(n.Children()), cap(n.Children()), len(n.Attrs()), cap(n.Attrs()))
	}
	for _, c := range n.Children() {
		if err := exactLists(c); err != nil {
			return err
		}
	}
	return nil
}

// mutateBoth runs one mutation program on two trees that start the
// same, got (built by a dom.Builder) and want (built node by node by the
// oracle parser), and fails at the first step after which they differ or
// at which one mutator fails and the other does not. Each step is three
// bytes: the mutator, the node it works on (by document order) and what
// it takes — a new element, a new text or a node of the same tree, or
// the name of an attribute.
func mutateBoth(t *testing.T, got, want *dom.Node, prog []byte) {
	t.Helper()
	attrNames := []string{"id", "a", "x"}
	for step := 0; step+3 <= len(prog); step += 3 {
		op, x, y := prog[step]%8, int(prog[step+1]), int(prog[step+2])
		gn, wn := preorder(got), preorder(want)
		g, w := gn[x%len(gn)], wn[x%len(wn)]
		// The node a mutator takes: the same fresh node or the same node
		// of each tree.
		arg := func() (*dom.Node, *dom.Node) {
			switch y % 3 {
			case 0:
				return dom.NewElement(dom.Name("n")), dom.NewElement(dom.Name("n"))
			case 1:
				return dom.NewText("t"), dom.NewText("t")
			}
			return gn[y%len(gn)], wn[y%len(wn)]
		}
		var gerr, werr error
		switch op {
		case 0:
			gc, wc := arg()
			gerr, werr = g.AppendChild(gc), w.AppendChild(wc)
		case 1:
			gc, wc := arg()
			gerr, werr = g.PrependChild(gc), w.PrependChild(wc)
		case 2, 3, 4:
			gp, wp := g.Parent(), w.Parent()
			if gp == nil {
				continue
			}
			gc, wc := arg()
			switch op {
			case 2:
				gerr, werr = gp.InsertBefore(gc, g), wp.InsertBefore(wc, w)
			case 3:
				gerr, werr = gp.InsertAfter(gc, g), wp.InsertAfter(wc, w)
			default:
				gerr, werr = gp.ReplaceChild(gc, g), wp.ReplaceChild(wc, w)
			}
		case 5:
			g.Detach()
			w.Detach()
		case 6, 7:
			if g.Type != dom.ElementNode {
				continue
			}
			name := dom.Name(attrNames[y%len(attrNames)])
			if op == 6 {
				g.SetAttr(name, fmt.Sprint(step))
				w.SetAttr(name, fmt.Sprint(step))
			} else {
				g.RemoveAttr(name)
				w.RemoveAttr(name)
			}
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("step %d (%d %d %d): error %v, oracle tree %v", step/3, op, x, y, gerr, werr)
		}
		if err := sameTree(got, want); err != nil {
			t.Fatalf("step %d (%d %d %d): %v", step/3, op, x, y, err)
		}
	}
}

// FuzzParseThenMutate: a tree carved from a dom.Builder's blocks — by
// the parser, and by Clone from a parsed tree — takes any sequence of
// dom mutations as the oracle parser's tree, whose every list is its
// own allocation, takes it: appends, inserts, removals, replacements
// and attribute changes after the build write into no other list. The
// Clone's source is left as it was.
func FuzzParseThenMutate(f *testing.F) {
	progs := [][]byte{
		{0, 1, 0, 0, 2, 1, 6, 1, 1},          // append an element and a text, add an attribute
		{0, 1, 2, 5, 2, 0, 4, 3, 1, 0, 0, 0}, // move a node, detach, replace, append to the root
		{2, 3, 0, 3, 2, 1, 7, 1, 0, 6, 2, 2, 1, 4, 5},
		{6, 1, 0, 6, 1, 1, 6, 1, 2, 7, 1, 0, 0, 1, 1},
	}
	for i, s := range append(append([]string{}, fuzzXMLSeeds...), fuzzHTMLSeeds...) {
		f.Add(s, progs[i%len(progs)])
	}
	f.Add(`<r><a><b/><c>x</c></a><d k="1" l="2"><e/></d><f/></r>`, []byte{0, 1, 0, 0, 2, 1, 0, 4, 0, 1, 5, 1, 6, 4, 0, 6, 5, 1})
	f.Fuzz(func(t *testing.T, src string, prog []byte) {
		if len(src) > 1<<12 || len(prog) > 3<<6 {
			return
		}
		for _, mode := range []Mode{XML, HTML} {
			got, err := parse(src, mode)
			if err != nil {
				continue
			}
			source, _ := parse(src, mode)
			for _, built := range []*dom.Node{got, source.Clone()} {
				want := mustOracle(t, src, mode)
				if err := sameTree(built, want); err != nil {
					t.Fatalf("parse(%q, %d): %v", src, mode, err)
				}
				if err := exactLists(built); err != nil {
					t.Fatalf("parse(%q, %d): %v", src, mode, err)
				}
				mutateBoth(t, built, want, prog)
			}
			if err := sameTree(source, mustOracle(t, src, mode)); err != nil {
				t.Fatalf("parse(%q, %d): mutating a clone changed its source: %v", src, mode, err)
			}
		}
	})
}

// mustOracle is the oracle parser's tree of an input the parser took.
func mustOracle(t *testing.T, src string, mode Mode) *dom.Node {
	t.Helper()
	doc, err := oracleParse(src, mode)
	if err != nil {
		t.Fatalf("parse(%q, %d) succeeded, the oracle failed: %v", src, mode, err)
	}
	return doc
}
