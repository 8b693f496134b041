package dom

import (
	"sync"
	"testing"
)

// idFixture builds
//
//	<root id="r"><a id="a1"><b id="b1"/><c>t1</c></a><a id="a2"><b/><b id="b2"/></a><c id="c1"/></root>
//
// in a document and returns the document and its elements by id.
func idFixture(t *testing.T) (doc *Node, byID map[string]*Node) {
	t.Helper()
	doc = NewDocument()
	byID = map[string]*Node{}
	el := func(parent *Node, name, id string) *Node {
		e := NewElement(Name(name))
		if id != "" {
			e.SetAttr(Name("id"), id)
			byID[id] = e
		}
		mustAppend(t, parent, e)
		return e
	}
	root := el(doc, "root", "r")
	a1 := el(root, "a", "a1")
	el(a1, "b", "b1")
	mustAppend(t, el(a1, "c", ""), NewText("t1"))
	a2 := el(root, "a", "a2")
	el(a2, "b", "")
	el(a2, "b", "b2")
	el(root, "c", "c1")
	return doc, byID
}

// idWalk is the oracle: the elements of n's subtree (n too if orSelf)
// whose id attribute is id, in a document-order walk.
func idWalk(n *Node, id string, orSelf bool) []*Node {
	var out []*Node
	n.Walk(func(e *Node) bool {
		if e.Type == ElementNode && (e != n || orSelf) && id != "" && e.AttrValue("id") == id {
			out = append(out, e)
		}
		return true
	})
	return out
}

// The cases the path index's id half answered (DescendantsByID, ByID),
// asked of the id map.
func TestAppendByIDAndElementByID(t *testing.T) {
	doc, ids := idFixture(t)
	root, a1 := ids["r"], ids["a1"]

	if got := root.AppendByID(nil, "b2", false); len(got) != 1 || got[0] != ids["b2"] {
		t.Fatalf("b2 under root = %v", got)
	}
	// b2 lives under a2, not a1.
	if got := a1.AppendByID(nil, "b2", false); len(got) != 0 {
		t.Fatalf("b2 under a1 = %v, want empty", got)
	}
	// orSelf picks up the focus node's own id.
	if got := a1.AppendByID(nil, "a1", true); len(got) != 1 || got[0] != a1 {
		t.Fatalf("a1-or-self = %v", got)
	}
	if got := a1.AppendByID(nil, "a1", false); len(got) != 0 {
		t.Fatalf("a1 proper-descendant = %v, want empty", got)
	}
	// The whole tree (fn:id's per-value lookup).
	if got := doc.AppendByID(nil, "c1", true); len(got) != 1 || got[0] != ids["c1"] {
		t.Fatalf("c1 in the tree = %v", got)
	}
	if got := doc.AppendByID(nil, "nope", true); len(got) != 0 {
		t.Fatalf("nope in the tree = %v, want empty", got)
	}
	// A node of another tree, or of constructed content, holds none of
	// this tree's ids.
	other, _ := idFixture(t)
	for _, foreign := range []*Node{other, NewElement(Name("a"))} {
		for _, got := range [][]*Node{foreign.AppendByID(nil, "b2", true), foreign.AppendByID(nil, "b2", false)} {
			for _, n := range got {
				if n.Root() == doc {
					t.Errorf("a lookup in another tree answered %v of this one", n)
				}
			}
		}
	}
	if doc.ElementByID("b1") != ids["b1"] || a1.ElementByID("r") != nil || doc.ElementByID("nope") != nil {
		t.Error("ElementByID disagrees with the fixture")
	}
	// dst is appended to, not overwritten.
	if got := doc.AppendByID([]*Node{ids["r"]}, "c1", true); len(got) != 2 || got[0] != ids["r"] || got[1] != ids["c1"] {
		t.Errorf("AppendByID onto a list = %v", got)
	}
}

// getElementById("") finds nothing, as in a DOM: a missing attribute
// reads as "", but no element has the empty id.
func TestElementByIDEmptyIsNil(t *testing.T) {
	doc := NewDocument()
	html, body := NewElement(Name("html")), NewElement(Name("body"))
	div, p := NewElement(Name("div")), NewElement(Name("p"))
	div.SetAttr(Name("id"), "a")
	p.SetAttr(Name("id"), "")
	mustAppend(t, doc, html)
	mustAppend(t, html, body)
	mustAppend(t, body, div)
	mustAppend(t, body, p)
	mustAppend(t, p, NewText("x"))
	if got := doc.ElementByID(""); got != nil {
		t.Errorf(`ElementByID("") = <%s>, want nil`, got.Name.Local)
	}
	if got := doc.AppendByID(nil, "", true); len(got) != 0 {
		t.Errorf(`AppendByID("") = %v, want empty`, got)
	}
	if doc.ElementByID("a") != div {
		t.Error(`ElementByID("a") missed the div`)
	}
}

// idMutations drives each mutator of tree.go and build.go against the
// fixture, after its id map is built.
var idMutations = []struct {
	name string
	op   func(t *testing.T, doc *Node, ids map[string]*Node)
}{
	{"AppendChild", func(t *testing.T, doc *Node, ids map[string]*Node) {
		x := NewElement(Name("x"))
		x.SetAttr(Name("id"), "b1") // a duplicate
		mustAppend(t, ids["a2"], x)
	}},
	{"AppendChildMove", func(t *testing.T, doc *Node, ids map[string]*Node) {
		mustAppend(t, ids["c1"], ids["a1"]) // a1, b1 move behind a2's b2
	}},
	{"PrependChild", func(t *testing.T, doc *Node, ids map[string]*Node) {
		x := NewElement(Name("x"))
		x.SetAttr(Name("id"), "new")
		if err := ids["r"].PrependChild(x); err != nil {
			t.Fatal(err)
		}
	}},
	{"InsertBefore", func(t *testing.T, doc *Node, ids map[string]*Node) {
		if err := ids["r"].InsertBefore(ids["b2"], ids["a1"]); err != nil {
			t.Fatal(err)
		}
	}},
	{"InsertAfter", func(t *testing.T, doc *Node, ids map[string]*Node) {
		x := NewElement(Name("x"))
		x.SetAttr(Name("id"), "c1")
		if err := ids["r"].InsertAfter(x, ids["a1"]); err != nil {
			t.Fatal(err)
		}
	}},
	{"Detach", func(t *testing.T, doc *Node, ids map[string]*Node) { ids["a1"].Detach() }},
	{"DetachIDAttr", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["a2"].AttrNode(Name("id")).Detach()
	}},
	{"ReplaceChild", func(t *testing.T, doc *Node, ids map[string]*Node) {
		x := NewElement(Name("x"))
		x.SetAttr(Name("id"), "a1")
		if err := ids["r"].ReplaceChild(x, ids["a2"]); err != nil {
			t.Fatal(err)
		}
	}},
	{"SetAttrNew", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["b1"].Parent().Children()[1].SetAttr(Name("id"), "b2")
	}},
	{"SetAttrChange", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["b1"].SetAttr(Name("id"), "renamed")
	}},
	{"SetAttrNamespaced", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["b1"].SetAttr(NameNS("urn:x", "id"), "ns")
	}},
	{"AddAttrNode", func(t *testing.T, doc *Node, ids map[string]*Node) {
		a := ids["c1"].AttrNode(Name("id"))
		a.Detach()
		if err := ids["a2"].Children()[0].AddAttrNode(a); err != nil {
			t.Fatal(err)
		}
	}},
	{"RemoveAttr", func(t *testing.T, doc *Node, ids map[string]*Node) { ids["b1"].RemoveAttr(Name("id")) }},
	{"RenameAttrAway", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["b1"].AttrNode(Name("id")).Rename(Name("was"))
	}},
	{"RenameAttrTo", func(t *testing.T, doc *Node, ids map[string]*Node) {
		e := ids["a2"].Children()[0]
		e.SetAttr(Name("k"), "a2")
		e.AttrNode(Name("k")).Rename(Name("id"))
	}},
	{"RenameElement", func(t *testing.T, doc *Node, ids map[string]*Node) { ids["b1"].Rename(Name("renamed")) }},
	{"SetDataIDAttr", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["c1"].AttrNode(Name("id")).SetData("b2")
	}},
	{"SetDataText", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["a1"].Children()[1].FirstChild().SetData("changed")
	}},
	{"ReplaceElementContent", func(t *testing.T, doc *Node, ids map[string]*Node) {
		ids["a2"].ReplaceElementContent("flat")
	}},
	{"RemoveChildren", func(t *testing.T, doc *Node, ids map[string]*Node) { ids["r"].RemoveChildren() }},
	{"RestoreChildAt", func(t *testing.T, doc *Node, ids map[string]*Node) {
		a1 := ids["a1"]
		a1.Detach()
		if err := ids["r"].RestoreChildAt(a1, 2); err != nil {
			t.Fatal(err)
		}
	}},
	{"RestoreAttrAt", func(t *testing.T, doc *Node, ids map[string]*Node) {
		a := ids["b2"].AttrNode(Name("id"))
		a.Detach()
		if err := ids["a2"].Children()[0].RestoreAttrAt(a, 0); err != nil {
			t.Fatal(err)
		}
	}},
	{"NormalizeText", func(t *testing.T, doc *Node, ids map[string]*Node) {
		c := ids["a1"].Children()[1]
		mustAppend(t, c, NewText("t2"))
		c.NormalizeText()
	}},
}

// checkIDs compares every id lookup of doc's tree with the walk: each
// id from every element's subtree, with and without itself.
func checkIDs(t *testing.T, doc *Node, ids []string) {
	t.Helper()
	var focus []*Node
	doc.Walk(func(n *Node) bool { focus = append(focus, n); return true })
	for _, id := range ids {
		for _, n := range focus {
			for _, orSelf := range []bool{false, true} {
				if got, want := n.AppendByID(nil, id, orSelf), idWalk(n, id, orSelf); !sameNodes(got, want) {
					t.Fatalf("id %q under <%s> (orSelf %v): map %v, walk %v", id, n.Name.Local, orSelf, got, want)
				}
			}
		}
		var want *Node
		if w := idWalk(doc, id, true); len(w) > 0 {
			want = w[0]
		}
		if got := doc.ElementByID(id); got != want {
			t.Fatalf("ElementByID(%q) = %v, walk %v", id, got, want)
		}
	}
}

var fixtureIDs = []string{"r", "a1", "a2", "b1", "b2", "c1", "new", "renamed", "ns", "flat", ""}

// Every mutator keeps a built id map current, moves included.
func TestIDMapFollowsMutators(t *testing.T) {
	for _, m := range idMutations {
		t.Run(m.name, func(t *testing.T) {
			doc, ids := idFixture(t)
			if doc.ElementByID("a1") != ids["a1"] || !doc.HasIDMap() {
				t.Fatal("the first lookup built no map")
			}
			m.op(t, doc, ids)
			if !doc.HasIDMap() {
				t.Fatalf("%s dropped the id map", m.name)
			}
			checkIDs(t, doc, fixtureIDs)
			// A subtree that left the tree answers for itself.
			for _, n := range ids {
				if r := n.Root(); r != doc {
					checkIDs(t, r, fixtureIDs)
				}
			}
		})
	}
}

// A duplicate id comes back in document order, also after a move puts
// its later holder first.
func TestIDMapDuplicateInDocumentOrderAfterMove(t *testing.T) {
	doc, ids := idFixture(t)
	x := NewElement(Name("x"))
	x.SetAttr(Name("id"), "b1")
	mustAppend(t, ids["c1"], x) // b1 twice: in a1, then in c1
	if got := doc.AppendByID(nil, "b1", true); len(got) != 2 || got[0] != ids["b1"] || got[1] != x {
		t.Fatalf("b1 before the move = %v", got)
	}
	// Move c1 (and x with it) in front of a1.
	if err := ids["r"].InsertBefore(ids["c1"], ids["a1"]); err != nil {
		t.Fatal(err)
	}
	if got := doc.AppendByID(nil, "b1", true); len(got) != 2 || got[0] != x || got[1] != ids["b1"] {
		t.Fatalf("b1 after the move = %v, want x first", got)
	}
	if doc.ElementByID("b1") != x {
		t.Error("ElementByID returned the later holder of a duplicate id")
	}
	// Remove the first holder: the other one is the answer again.
	x.Detach()
	if got := doc.AppendByID(nil, "b1", true); len(got) != 1 || got[0] != ids["b1"] {
		t.Fatalf("b1 after the detach = %v", got)
	}
}

// A unique id is answered without relabeling the page a mutation left
// stale; a lookup allocates nothing once the map is built.
func TestIDMapUniqueHitReadsNoLabel(t *testing.T) {
	doc, ids := idFixture(t)
	doc.ElementByID("r")
	CompareOrder(ids["a1"], ids["a2"]) // labeled at this version
	mustAppend(t, ids["a2"], NewElement(Name("x")))
	s := doc.side.Load()
	if s.labeled.Load() == doc.rootVersion()+1 {
		t.Fatal("the mutation left the labels current")
	}
	if got := ids["a2"].AppendByID(nil, "b2", false); len(got) != 1 || got[0] != ids["b2"] {
		t.Fatalf("b2 under a2 = %v", got)
	}
	if doc.ElementByID("c1") != ids["c1"] {
		t.Fatal("ElementByID missed c1")
	}
	if s.labeled.Load() == doc.rootVersion()+1 {
		t.Error("a unique id lookup relabeled the tree")
	}
	if n := testing.AllocsPerRun(100, func() { doc.ElementByID("b2") }); n != 0 {
		t.Errorf("ElementByID allocates %v times, want 0", n)
	}
}

// Clone never copies the map; RestoreVersion drops it, and the next
// lookup rebuilds it from the tree.
func TestIDMapCloneAndRestoreVersion(t *testing.T) {
	doc, ids := idFixture(t)
	doc.ElementByID("r")
	if c := doc.Clone(); c.HasIDMap() {
		t.Error("Clone copied the id map")
	} else if got := c.ElementByID("b2"); got == nil || got == ids["b2"] || got.Root() != c {
		t.Errorf("the clone's lookup = %v", got)
	}
	v := doc.Version()
	ids["b2"].SetAttr(Name("id"), "z")
	doc.RestoreVersion(v)
	if doc.HasIDMap() {
		t.Fatal("RestoreVersion kept the id map")
	}
	if doc.ElementByID("z") != ids["b2"] || doc.ElementByID("b2") != nil {
		t.Error("the rebuilt map does not reflect the tree")
	}
}

// A subtree that was a root with a map of its own drops it once it
// joins another tree: the map would be stale when it leaves again.
func TestIDMapOfAnAttachedRootIsDropped(t *testing.T) {
	doc, ids := idFixture(t)
	sub := NewElement(Name("sub"))
	inner := NewElement(Name("in"))
	inner.SetAttr(Name("id"), "in")
	mustAppend(t, sub, inner)
	if sub.ElementByID("in") != inner || !sub.HasIDMap() {
		t.Fatal("the detached subtree built no map")
	}
	mustAppend(t, ids["a1"], sub)
	inner.SetAttr(Name("id"), "moved") // seen by doc's map only
	sub.Detach()
	if sub.ElementByID("in") != nil || sub.ElementByID("moved") != inner {
		t.Error("a subtree that left the tree answered from its old map")
	}
	if doc.ElementByID("moved") != nil {
		t.Error("the tree still finds an id that left it")
	}
}

// Readers of a shared immutable tree may race to build its map (run
// with -race): all of them answer, from one map.
func TestIDMapConcurrentBuild(t *testing.T) {
	doc, ids := idFixture(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if doc.ElementByID("b2") != ids["b2"] {
				t.Error("concurrent lookup missed b2")
			}
			if got := ids["a1"].AppendByID(nil, "b1", false); len(got) != 1 {
				t.Errorf("concurrent lookup under a1 = %v", got)
			}
		}()
	}
	wg.Wait()
}
