package index_test

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/markup"
)

// testDoc parses a small fixture with known names, ids and nesting.
func testDoc(t *testing.T) *dom.Node {
	t.Helper()
	d, err := markup.Parse(`<root id="r">
  <a id="a1"><b id="b1"/><c>t1</c></a>
  <a id="a2"><b/><b id="b2"/></a>
  <c id="c1"/>
</root>`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func elem(t *testing.T, root *dom.Node, id string) *dom.Node {
	t.Helper()
	var out *dom.Node
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n.AttrValue("id") == id {
			out = n
			return false
		}
		return true
	})
	if out == nil {
		t.Fatalf("no element with id %q", id)
	}
	return out
}

func TestDescendantsByName(t *testing.T) {
	doc := testDoc(t)
	idx := index.For(doc)
	root := elem(t, doc, "r")

	bs, ok := idx.DescendantsByName(root, "", "b", false)
	if !ok || len(bs) != 3 {
		t.Fatalf("b under root = %d (ok=%v), want 3", len(bs), ok)
	}
	a2 := elem(t, doc, "a2")
	bs, ok = idx.DescendantsByName(a2, "", "b", false)
	if !ok || len(bs) != 2 {
		t.Fatalf("b under a2 = %d (ok=%v), want 2", len(bs), ok)
	}
	// Document order: the unnamed b precedes b2.
	if bs[1].AttrValue("id") != "b2" {
		t.Fatalf("b list out of document order: %v", bs)
	}
	// orSelf includes the focus node exactly when the name matches.
	self, ok := idx.DescendantsByName(a2, "", "a", true)
	if !ok || len(self) != 1 || self[0] != a2 {
		t.Fatalf("a-or-self under a2 = %v (ok=%v), want [a2]", self, ok)
	}
	if cs, ok := idx.DescendantsByName(a2, "", "c", false); !ok || len(cs) != 0 {
		t.Fatalf("c under a2 = %d (ok=%v), want 0", len(cs), ok)
	}
	if miss, ok := idx.DescendantsByName(root, "", "zzz", false); !ok || len(miss) != 0 {
		t.Fatalf("zzz under root = %d (ok=%v), want 0", len(miss), ok)
	}
	// A node of another tree, or of constructed content, is not inside
	// this one: the index cannot answer for it.
	for _, foreign := range []*dom.Node{elem(t, testDoc(t), "a2"), dom.NewElement(dom.QName{Local: "a"})} {
		if _, ok := idx.DescendantsByName(foreign, "", "b", true); ok {
			t.Error("DescendantsByName answered for a node of another tree")
		}
		if _, ok := idx.DescendantsByID(foreign, "b2", true); ok {
			t.Error("DescendantsByID answered for a node of another tree")
		}
	}
}

func TestDescendantsByIDAndByID(t *testing.T) {
	doc := testDoc(t)
	idx := index.For(doc)
	root := elem(t, doc, "r")
	a1 := elem(t, doc, "a1")

	if got, ok := idx.DescendantsByID(root, "b2", false); !ok || len(got) != 1 || got[0].AttrValue("id") != "b2" {
		t.Fatalf("b2 under root = %v (ok=%v)", got, ok)
	}
	// b2 lives under a2, not a1.
	if got, ok := idx.DescendantsByID(a1, "b2", false); !ok || len(got) != 0 {
		t.Fatalf("b2 under a1 = %v (ok=%v), want empty", got, ok)
	}
	// orSelf picks up the focus node's own id.
	if got, ok := idx.DescendantsByID(a1, "a1", true); !ok || len(got) != 1 || got[0] != a1 {
		t.Fatalf("a1-or-self = %v (ok=%v)", got, ok)
	}
	if got, ok := idx.DescendantsByID(a1, "a1", false); !ok || len(got) != 0 {
		t.Fatalf("a1 proper-descendant = %v (ok=%v), want empty", got, ok)
	}
	if got, ok := idx.ByID("c1"); !ok || len(got) != 1 || got[0].AttrValue("id") != "c1" {
		t.Fatalf("ByID(c1) = %v (ok=%v)", got, ok)
	}
	if got, ok := idx.ByID("nope"); !ok || len(got) != 0 {
		t.Fatalf("ByID(nope) = %v (ok=%v), want empty", got, ok)
	}
}

// mutation drives one tree.go mutator against a freshly indexed tree.
type mutation struct {
	name string
	op   func(t *testing.T, doc *dom.Node)
}

var mutations = []mutation{
	{"AppendChild", func(t *testing.T, doc *dom.Node) {
		must(t, elem(t, doc, "a1").AppendChild(dom.NewElement(dom.QName{Local: "b"})))
	}},
	{"PrependChild", func(t *testing.T, doc *dom.Node) {
		must(t, elem(t, doc, "a1").PrependChild(dom.NewElement(dom.QName{Local: "b"})))
	}},
	{"InsertBefore", func(t *testing.T, doc *dom.Node) {
		a2 := elem(t, doc, "a2")
		must(t, a2.Parent().InsertBefore(dom.NewElement(dom.QName{Local: "b"}), a2))
	}},
	{"InsertAfter", func(t *testing.T, doc *dom.Node) {
		a2 := elem(t, doc, "a2")
		must(t, a2.Parent().InsertAfter(dom.NewElement(dom.QName{Local: "b"}), a2))
	}},
	{"Detach", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "a2").Detach()
	}},
	{"ReplaceChild", func(t *testing.T, doc *dom.Node) {
		a2 := elem(t, doc, "a2")
		must(t, a2.Parent().ReplaceChild(dom.NewElement(dom.QName{Local: "b"}), a2))
	}},
	{"SetAttr", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "b1").SetAttr(dom.QName{Local: "id"}, "renamed")
	}},
	{"AddAttrNode", func(t *testing.T, doc *dom.Node) {
		must(t, elem(t, doc, "b1").AddAttrNode(dom.NewAttr(dom.QName{Local: "x"}, "1")))
	}},
	{"RemoveAttr", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "b1").RemoveAttr(dom.QName{Local: "id"})
	}},
	{"Rename", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "b1").Rename(dom.QName{Local: "renamed"})
	}},
	{"SetData", func(t *testing.T, doc *dom.Node) {
		var text *dom.Node
		doc.Walk(func(n *dom.Node) bool {
			if n.Type == dom.TextNode {
				text = n
				return false
			}
			return true
		})
		if text == nil {
			t.Fatal("no text node in fixture")
		}
		text.SetData("changed")
	}},
	{"ReplaceElementContent", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "a2").ReplaceElementContent("flat")
	}},
	{"RemoveChildren", func(t *testing.T, doc *dom.Node) {
		elem(t, doc, "a2").RemoveChildren()
	}},
	{"NormalizeText", func(t *testing.T, doc *dom.Node) {
		c := elem(t, doc, "a1").Children()[1]
		must(t, c.AppendChild(dom.NewText("t2")))
		c.NormalizeText()
	}},
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestMutatorsInvalidate: every mutator in dom/tree.go bumps the
// version, so a built index goes stale (Fresh returns nil, every
// accessor of the old Doc answers ok=false), no rebuild happens until
// the next For (lazy — the builds counter is the hook), and the rebuilt
// index reflects the mutated tree.
func TestMutatorsInvalidate(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			doc := testDoc(t)
			idx := index.For(doc)
			if index.Fresh(doc) != idx {
				t.Fatal("Fresh does not return the just-built index")
			}
			if again := index.For(doc); again != idx {
				t.Fatal("For rebuilt an index that was still fresh")
			}
			base := index.Snapshot().Builds

			m.op(t, doc)

			if got := index.Fresh(doc); got != nil {
				t.Fatalf("Fresh = %p after %s, want nil (stale index consulted)", got, m.name)
			}
			if _, ok := idx.ByID("a1"); ok {
				t.Fatalf("stale index answered ByID after %s", m.name)
			}
			if _, ok := idx.DescendantsByName(doc, "", "a", false); ok {
				t.Fatalf("stale index answered DescendantsByName after %s", m.name)
			}
			if _, ok := idx.DescendantsByID(doc, "a1", false); ok {
				t.Fatalf("stale index answered DescendantsByID after %s", m.name)
			}
			if d := index.Snapshot().Builds - base; d != 0 {
				t.Fatalf("%s itself triggered %d rebuilds, want 0 (rebuild must be lazy)", m.name, d)
			}

			rebuilt := index.For(doc)
			if rebuilt == idx {
				t.Fatalf("For returned the stale index after %s", m.name)
			}
			if d := index.Snapshot().Builds - base; d != 1 {
				t.Fatalf("For after %s built %d indexes, want 1", m.name, d)
			}
			// The rebuilt index answers for the mutated tree: walk and
			// index must agree on the element population.
			var walked int
			doc.Walk(func(n *dom.Node) bool {
				if n.Type == dom.ElementNode && n.Name.Local == "b" {
					walked++
				}
				return true
			})
			got, ok := rebuilt.DescendantsByName(doc, "", "b", false)
			if !ok || len(got) != walked {
				t.Fatalf("rebuilt index finds %d <b> (ok=%v), walk finds %d", len(got), ok, walked)
			}
		})
	}
}

// TestProbeAmortisesRebuilds: a cold tree builds on the first Probe, a
// stale one only after sustained probe traffic at one version — and a
// fresh mutation resets the count, so alternating mutate/probe
// workloads never rebuild.
func TestProbeAmortisesRebuilds(t *testing.T) {
	doc := testDoc(t)
	base := index.Snapshot().Builds

	idx := index.Probe(doc)
	if idx == nil {
		t.Fatal("Probe declined to build on a cold tree")
	}
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("cold Probe built %d indexes, want 1", d)
	}
	if index.Probe(doc) != idx {
		t.Fatal("Probe on a fresh tree did not return the cached index")
	}

	// Alternating mutation and probe: the version moves every time, so
	// the per-version probe count never accumulates and Probe keeps
	// declining.
	a1 := elem(t, doc, "a1")
	for i := 0; i < 10; i++ {
		a1.SetAttr(dom.QName{Local: "n"}, "x")
		if got := index.Probe(doc); got != nil {
			t.Fatalf("Probe rebuilt on mutation round %d, want decline", i)
		}
	}
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("mutate/probe churn built %d extra indexes, want 0", d-1)
	}

	// Once the tree settles, sustained probes cross the threshold and
	// rebuild exactly once.
	var rebuilt *index.Doc
	for i := 0; i < 10 && rebuilt == nil; i++ {
		rebuilt = index.Probe(doc)
	}
	if rebuilt == nil {
		t.Fatal("sustained probes on a settled tree never rebuilt")
	}
	if d := index.Snapshot().Builds - base; d != 2 {
		t.Fatalf("settling built %d total indexes, want 2", d)
	}
	if got, ok := rebuilt.DescendantsByName(doc, "", "b", false); !ok || len(got) != 3 {
		t.Fatalf("rebuilt index finds %d <b> (ok=%v), want 3", len(got), ok)
	}
}

// TestConcurrentFor: racing builders on a cold tree are idempotent —
// run with -race, both goroutines must observe a usable index.
func TestConcurrentFor(t *testing.T) {
	doc := testDoc(t)
	done := make(chan *index.Doc, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- index.For(doc) }()
	}
	for i := 0; i < 2; i++ {
		idx := <-done
		if got, ok := idx.DescendantsByName(doc, "", "b", false); !ok || len(got) != 3 {
			t.Errorf("concurrent build: b = %d (ok=%v), want 3", len(got), ok)
		}
	}
}
