package update

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
)

func tree(t *testing.T, src string) *dom.Node {
	t.Helper()
	doc, err := markup.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func el(t *testing.T, doc *dom.Node, local string) *dom.Node {
	t.Helper()
	els := doc.Elements(local)
	if len(els) == 0 {
		t.Fatalf("no element %q", local)
	}
	return els[0]
}

func apply(t *testing.T, p *PUL) {
	t.Helper()
	if err := p.Apply(nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertInto(t *testing.T) {
	doc := tree(t, `<r><a/></r>`)
	p := &PUL{}
	if err := p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "r"),
		Content: []*dom.Node{dom.NewElement(dom.Name("b")), dom.NewText("t")}}); err != nil {
		t.Fatal(err)
	}
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><a/><b/>t</r>` {
		t.Errorf("got %s", got)
	}
	if !p.Empty() {
		t.Error("apply must clear the list")
	}
}

func TestInsertIntoFirstPreservesOrder(t *testing.T) {
	doc := tree(t, `<r><a/></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertIntoFirst, Target: el(t, doc, "r"),
		Content: []*dom.Node{dom.NewElement(dom.Name("x")), dom.NewElement(dom.Name("y"))}})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><x/><y/><a/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	doc := tree(t, `<r><a/><b/></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertBefore, Target: el(t, doc, "b"),
		Content: []*dom.Node{dom.NewElement(dom.Name("m"))}})
	_ = p.Add(Primitive{Kind: InsertAfter, Target: el(t, doc, "b"),
		Content: []*dom.Node{dom.NewElement(dom.Name("n")), dom.NewElement(dom.Name("o"))}})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><a/><m/><b/><n/><o/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestInsertAttributes(t *testing.T) {
	doc := tree(t, `<r/>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "r"),
		Content: []*dom.Node{dom.NewAttr(dom.Name("k"), "v"), dom.NewText("body")}})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r k="v">body</r>` {
		t.Errorf("got %s", got)
	}
}

func TestDelete(t *testing.T) {
	doc := tree(t, `<r><a/><b/><c/></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "b")})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><a/><c/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestReplaceNode(t *testing.T) {
	doc := tree(t, `<r><old/></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceNode, Target: el(t, doc, "old"),
		Content: []*dom.Node{dom.NewElement(dom.Name("n1")), dom.NewElement(dom.Name("n2"))}})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><n1/><n2/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestReplaceAttributeNode(t *testing.T) {
	doc := tree(t, `<r k="old"/>`)
	r := el(t, doc, "r")
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceNode, Target: r.AttrNode(dom.Name("k")),
		Content: []*dom.Node{dom.NewAttr(dom.Name("k2"), "new")}})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r k2="new"/>` {
		t.Errorf("got %s", got)
	}
}

func TestReplaceValue(t *testing.T) {
	doc := tree(t, `<r k="v"><a>old</a></r>`)
	r := el(t, doc, "r")
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "new"})
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: r.AttrNode(dom.Name("k")), Value: "v2"})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r k="v2"><a>new</a></r>` {
		t.Errorf("got %s", got)
	}
}

func TestReplaceElementContentEmpty(t *testing.T) {
	doc := tree(t, `<r><a><b/>text</a></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: ""})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r><a/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestRename(t *testing.T) {
	doc := tree(t, `<r k="v"><a/></r>`)
	r := el(t, doc, "r")
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "a"), Name: dom.Name("z")})
	_ = p.Add(Primitive{Kind: Rename, Target: r.AttrNode(dom.Name("k")), Name: dom.Name("k2")})
	apply(t, p)
	if got := markup.Serialize(doc); got != `<r k2="v"><z/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestRenameTextFails(t *testing.T) {
	doc := tree(t, `<r>text</r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "r").FirstChild(), Name: dom.Name("x")})
	if err := p.Apply(nil); err == nil {
		t.Error("renaming a text node must fail")
	}
}

func TestCompatibilityConflicts(t *testing.T) {
	doc := tree(t, `<r><a/></r>`)
	a := el(t, doc, "a")
	for _, kind := range []Kind{Rename, ReplaceNode, ReplaceValue} {
		p := &PUL{}
		if err := p.Add(Primitive{Kind: kind, Target: a, Name: dom.Name("x")}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("update: incompatible updates: two %s operations target the same node", kind)
		if err := p.Add(Primitive{Kind: kind, Target: a, Name: dom.Name("y")}); err == nil || err.Error() != want {
			t.Errorf("duplicate %s on one target: %v, want %q", kind, err, want)
		}
		if p.Len() != 1 {
			t.Errorf("a rejected %s was kept: len %d", kind, p.Len())
		}
		// Reset forgets the pending exclusive updates with the list.
		p.Reset()
		if err := p.Add(Primitive{Kind: kind, Target: a, Name: dom.Name("y")}); err != nil {
			t.Errorf("%s after Reset: %v", kind, err)
		}
	}
	// Two deletes are compatible.
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Delete, Target: a})
	if err := p.Add(Primitive{Kind: Delete, Target: a}); err != nil {
		t.Errorf("duplicate delete should be allowed: %v", err)
	}
}

func TestMerge(t *testing.T) {
	doc := tree(t, `<r><a/></r>`)
	a := el(t, doc, "a")
	p1, p2 := &PUL{}, &PUL{}
	_ = p1.Add(Primitive{Kind: Rename, Target: a, Name: dom.Name("x")})
	_ = p2.Add(Primitive{Kind: Rename, Target: a, Name: dom.Name("y")})
	if err := p1.Merge(p2); err == nil {
		t.Error("merge must enforce compatibility")
	}
	p3 := &PUL{}
	_ = p3.Add(Primitive{Kind: Delete, Target: a})
	if err := p1.Merge(p3); err != nil {
		t.Errorf("compatible merge failed: %v", err)
	}
	if p1.Len() != 2 {
		t.Errorf("merged len = %d", p1.Len())
	}
}

// TestApplyOrder verifies the spec's phase order: a replaceValue on a
// node and an insertBefore around the same node both take effect, and a
// delete of a node that also receives inserts removes it last.
func TestApplyOrder(t *testing.T) {
	doc := tree(t, `<r><a>v</a></r>`)
	a := el(t, doc, "a")
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertBefore, Target: a, Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: a, Value: "w"})
	_ = p.Add(Primitive{Kind: Delete, Target: a})
	apply(t, p)
	// Delete runs last: a is gone, x stays.
	if got := markup.Serialize(doc); got != `<r><x/></r>` {
		t.Errorf("got %s", got)
	}
}

func TestTargetsWithin(t *testing.T) {
	doc1 := tree(t, `<r><a/></r>`)
	doc2 := tree(t, `<q><b/></q>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc1, "a")})
	if err := p.TargetsWithin([]*dom.Node{doc1}); err != nil {
		t.Errorf("in-tree target rejected: %v", err)
	}
	if err := p.TargetsWithin([]*dom.Node{doc2}); err == nil {
		t.Error("out-of-tree target accepted")
	}
}

func TestOnChangeCallback(t *testing.T) {
	doc := tree(t, `<r><a/><b/></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "a")})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "b")})
	n := 0
	if err := p.Apply(func(pr Primitive) {
		if pr.Kind != Delete {
			t.Errorf("callback kind = %v", pr.Kind)
		}
		n++
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("callbacks = %d", n)
	}
}

func TestInsertBeforeParentless(t *testing.T) {
	orphan := dom.NewElement(dom.Name("o"))
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertBefore, Target: orphan,
		Content: []*dom.Node{dom.NewText("x")}})
	if err := p.Apply(nil); err == nil || !strings.Contains(err.Error(), "parentless") {
		t.Errorf("expected parentless error, got %v", err)
	}
}

func TestKindString(t *testing.T) {
	if InsertInto.String() != "insertInto" || Delete.String() != "delete" {
		t.Error("Kind.String wrong")
	}
}
