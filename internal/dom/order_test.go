package dom

import (
	"sync"
	"testing"
)

// The labels of a shared tree nothing mutates are written once, by
// whichever reader comes first, and read by all (run under -race).
func TestCompareOrderConcurrentReaders(t *testing.T) {
	_, root, a, b, c := buildSample(t)
	text := a.FirstChild()
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				if CompareOrder(a, c) != -1 || CompareOrder(c, text) != 1 || CompareOrder(root, b) != -1 {
					t.Error("concurrent readers disagree on document order")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// Label gives every node its pre rank and the end of its subtree:
// attributes sit between their element and its children, and the last
// label of a subtree may be an attribute of its last descendant.
func TestLabelSpans(t *testing.T) {
	doc, root, a, b, c := buildSample(t)
	c.SetAttr(Name("k"), "v")
	inside := func(anc, desc *Node) bool {
		ap, ae, ar := anc.Label()
		dp, _, dr := desc.Label()
		return ar == dr && ap < dp && dp <= ae
	}
	for _, x := range []struct {
		anc, desc *Node
		want      bool
	}{
		{doc, c, true},
		{root, a.AttrNode(Name("id")), true},
		{a, a.FirstChild(), true},
		{a, b, false},
		{b, c.AttrNode(Name("k")), true},
		{b, b.LastChild(), true},
		{c, b.LastChild(), false},
		{a, a, false},
	} {
		if got := inside(x.anc, x.desc); got != x.want {
			t.Errorf("%s inside %s = %v, want %v", x.desc.Name, x.anc.Name, got, x.want)
		}
	}
	if pre, end, r := doc.Label(); pre != 0 || r != doc || end != 8 {
		t.Errorf("document label = (%d, %d), root %v; want (0, 8), itself", pre, end, r.Type)
	}
	if pre, end, _ := a.AttrNode(Name("id")).Label(); pre != 3 || end != 3 {
		t.Errorf("attribute label = (%d, %d), want (3, 3)", pre, end)
	}
}

// SortDedup orders and deduplicates in place: one tree's shuffled nodes
// by label, already ordered input without allocating, and nodes of
// several trees tree by tree.
func TestSortDedup(t *testing.T) {
	doc, root, a, b, c := buildSample(t)
	attr := a.AttrNode(Name("id"))
	got := SortDedup([]*Node{c, b, attr, a, b, c, root})
	if want := []*Node{root, a, attr, b, c}; !sameNodes(got, want) {
		t.Fatalf("SortDedup = %v, want %v", got, want)
	}
	ordered := []*Node{a, attr, a.FirstChild(), b, b, c}
	if allocs := testing.AllocsPerRun(20, func() { SortDedup(append([]*Node(nil), ordered...)) }); allocs > 1 {
		t.Errorf("ordered input: %v allocations, want the copy's one", allocs)
	}

	other, _, oa, _, _ := buildSample(t)
	doc.SetBaseURI("/c/2.xml")
	other.SetBaseURI("/c/1.xml")
	constructed := NewElement(Name("x"))
	got = SortDedup([]*Node{c, constructed, a, oa, c, other})
	if want := []*Node{other, oa, a, c, constructed}; !sameNodes(got, want) {
		t.Fatalf("across trees: SortDedup = %v, want %v", got, want)
	}
}

func sameNodes(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A rolled-back update rewinds the version counter. Labels written
// inside the rolled-back window must not read as fresh when the counter
// climbs back to the version they were written at over another tree.
func TestLabelsAfterRestoreVersion(t *testing.T) {
	_, root, a, b, _ := buildSample(t)
	v := root.Version()
	if CompareOrder(a, b) != -1 {
		t.Fatal("precondition")
	}
	// The window: move a after b, label the moved tree, undo the move.
	if err := root.InsertAfter(a, b); err != nil {
		t.Fatal(err)
	}
	window := root.Version()
	if CompareOrder(a, b) != 1 {
		t.Fatal("order inside the window")
	}
	if err := root.InsertBefore(a, b); err != nil {
		t.Fatal(err)
	}
	root.RestoreVersion(v)
	// Appends take the counter back to the version the window's labels
	// were written at.
	var added []*Node
	for root.Version() < window {
		x := NewElement(Name("x"))
		if err := root.AppendChild(x); err != nil {
			t.Fatal(err)
		}
		added = append(added, x)
	}
	if CompareOrder(a, b) != -1 || CompareOrder(b, added[0]) != -1 {
		t.Error("labels from the rolled-back window read as fresh")
	}
}

// A constructed tree labeled while it was a root, attached, changed
// inside its new tree and cut loose again is relabeled, not read from
// the labels of its first time as a root.
func TestLabelsOfARootThatWasAChild(t *testing.T) {
	tr := NewElement(Name("tr"))
	one, two := NewElement(Name("td")), NewElement(Name("td"))
	tr.AdoptChildren([]*Node{one, two})
	if CompareOrder(one, two) != -1 {
		t.Fatal("precondition")
	}
	_, root, _, _, _ := buildSample(t)
	if err := root.AppendChild(tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertBefore(two, one); err != nil {
		t.Fatal(err)
	}
	tr.Detach()
	if CompareOrder(two, one) != -1 {
		t.Error("a detached subtree reads the labels of its earlier time as a root")
	}
}
