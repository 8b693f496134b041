package dom

import (
	"sync"
	"testing"
	"unsafe"
)

// A node is allocated once per element, text and attribute of every
// page, stored revision and wire payload, so its size class is a cost of
// everything (DESIGN.md §5q, §5t): a leaf fits the 112-byte class, an
// element with its lists the 160-byte one, a document with its side
// struct 320 (the side struct holds the labeling's version word and
// lock, once per tree). One more word in Node costs every leaf sixteen
// bytes.
func TestNodeFitsItsSizeClass(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"a leaf dom.Node", unsafe.Sizeof(Node{}), 112},
		{"an element with its lists", unsafe.Sizeof(elemNode{}), 160},
		{"a document with its lists and side struct", unsafe.Sizeof(docNode{}), 320},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, over the %d-byte size class it fitted", c.what, c.got, c.want)
		}
	}
}

// The parts of a node are not allocations of their own: an element or a
// document is one object, a document's base URI, first listener and
// index slots are in it (storing an index allocates the box the value
// goes in, no more), and the first listener of an element costs its side
// struct and nothing else.
func TestNodePartsAreCoAllocated(t *testing.T) {
	var sink *Node
	noop := func(*Event) {}
	for _, c := range []struct {
		what  string
		want  float64
		build func()
	}{
		{"NewElement", 1, func() { sink = NewElement(Name("e")) }},
		{"NewDocument", 1, func() { sink = NewDocument() }},
		{"a document with base URI, listener and index slot", 2, func() {
			sink = NewDocumentOf("http://example.com/")
			sink.AddEventListener("load", false, nil, noop)
			sink.StoreFTIndexCache(nil) // the stored value's box, as ever
		}},
		{"an element with one listener", 2, func() {
			sink = NewElement(Name("e"))
			sink.AddEventListener("click", false, nil, noop)
		}},
	} {
		if got := testing.AllocsPerRun(50, c.build); got != c.want {
			t.Errorf("%s makes %.0f allocations, want %.0f", c.what, got, c.want)
		}
	}
	_ = sink
}

// A clone sizes each list once and carves an element's attribute copies
// from one block, as AdoptAttrs does: the copy of a stored document that
// xmldb publishes per write keeps no append slack.
func TestCloneSizesItsListsOnce(t *testing.T) {
	e := NewElement(Name("e"))
	for _, k := range []string{"a", "b", "c"} {
		e.SetAttr(Name(k), k)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, e, NewText("t"))
	}
	c := e.Clone()
	if kids, attrs := c.Children(), c.Attrs(); len(kids) != 5 || cap(kids) != 5 || len(attrs) != 3 || cap(attrs) != 3 {
		t.Errorf("clone lists: children %d/%d, attrs %d/%d; want 5/5 and 3/3",
			len(kids), cap(kids), len(attrs), cap(attrs))
	}
	// The element, its child list, five texts, the attribute list and
	// one block for the three attribute nodes.
	if got := testing.AllocsPerRun(50, func() { c = e.Clone() }); got != 9 {
		t.Errorf("Clone makes %.0f allocations, want 9", got)
	}
	if got := c.CloneNormalized().Children(); len(got) != 1 || got[0].Data != "ttttt" {
		t.Errorf("CloneNormalized children = %v", got)
	}
}

// The side struct is published race-free (run under -race): readers of
// a shared immutable tree store and load its index slots concurrently —
// on a parsed document, which was constructed with its side struct, and
// on a parentless constructed root, which gets one by compare-and-swap
// from whichever reader comes first. Every reader must end up on the
// same side struct: a slot stored through one is visible through all.
func TestSideStructIsPublishedOnce(t *testing.T) {
	doc := NewDocument()
	mustAppend(t, doc, NewElement(Name("root")))
	constructed := NewElement(Name("table"))
	constructed.AdoptChildren([]*Node{NewElement(Name("tr"))})

	for _, root := range []*Node{doc, constructed} {
		leaf := root.FirstChild()
		const readers = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					root.StoreIndexCache(g)
					if got := root.LoadIndexCache(); got == nil {
						t.Errorf("%s root: index slot empty after a store", root.Type)
						return
					}
					_ = root.LoadFTIndexCache()
					if leaf.Version() != root.Version() || root.Base() != "" {
						t.Errorf("%s root: version or base moved under readers", root.Type)
						return
					}
				}
				root.StoreFTIndexCache("ft")
			}(g)
		}
		close(start)
		wg.Wait()
		if got := root.LoadFTIndexCache(); got != "ft" {
			t.Errorf("%s root: full-text slot = %v, want the value every reader stored", root.Type, got)
		}
		if got, ok := root.LoadIndexCache().(int); !ok || got < 0 || got >= readers {
			t.Errorf("%s root: index slot = %v, want one reader's value", root.Type, root.LoadIndexCache())
		}
	}
}

// Listeners belong to the node, not to its place in a tree: they survive
// a Detach and a re-attach into another document; a Clone carries none;
// and a node whose last listener was removed takes new ones.
func TestListenersFollowTheNode(t *testing.T) {
	doc1, doc2 := NewDocument(), NewDocument()
	root1, root2 := NewElement(Name("r1")), NewElement(Name("r2"))
	mustAppend(t, doc1, root1)
	mustAppend(t, doc2, root2)
	btn := NewElement(Name("button"))
	mustAppend(t, root1, btn)

	var trace []string
	rec := func(tag string) Listener { return func(*Event) { trace = append(trace, tag) } }
	btn.AddEventListener("click", false, "first", rec("first"))
	btn.AddEventListener("click", false, "second", rec("second"))
	root2.AddEventListener("click", false, nil, rec("root2"))

	btn.Detach()
	mustAppend(t, root2, btn)
	btn.DispatchEvent(&Event{Type: "click", Bubbles: true})
	if got := len(trace); got != 3 || trace[0] != "first" || trace[1] != "second" || trace[2] != "root2" {
		t.Errorf("after moving to another document: %v, want [first second root2]", trace)
	}

	if c := btn.Clone(); c.ListenerCount("click") != 0 {
		t.Error("Clone carried listeners")
	}
	doc2.SetBaseURI("http://example.com/two")
	if c := doc2.Clone(); c.DocumentElement().ListenerCount("click") != 0 || c.BaseURI() != "http://example.com/two" {
		t.Error("Clone of a document must carry its base URI and no listeners")
	}

	// Removing the inline first listener promotes the second; removing
	// that one too leaves a node that works as before.
	btn.RemoveEventListener("click", false, "first")
	trace = nil
	btn.DispatchEvent(&Event{Type: "click"})
	if len(trace) != 1 || trace[0] != "second" {
		t.Errorf("after removing the first listener: %v, want [second]", trace)
	}
	btn.RemoveEventListener("click", false, "second")
	btn.RemoveEventListener("click", false, "second") // absent: a no-op
	trace = nil
	btn.DispatchEvent(&Event{Type: "click"})
	if len(trace) != 0 || btn.ListenerCount("click") != 0 {
		t.Errorf("after removing every listener: fired %v, count %d", trace, btn.ListenerCount("click"))
	}
	btn.AddEventListener("click", false, "first", rec("again"))
	btn.SetAttr(Name("id"), "b")
	btn.DispatchEvent(&Event{Type: "click"})
	if len(trace) != 1 || trace[0] != "again" || btn.AttrValue("id") != "b" {
		t.Errorf("a node emptied of listeners must stay usable: fired %v", trace)
	}
}

// A listener that removes an earlier registration shifts the list under
// the running dispatch: every listener registered before the event still
// fires exactly once, in registration order, and one that is removed and
// registered again during the dispatch counts as new and waits for the
// next event.
func TestListenerListShiftsDuringDispatch(t *testing.T) {
	e := NewElement(Name("e"))
	var trace []string
	rec := func(tag string) Listener { return func(*Event) { trace = append(trace, tag) } }
	e.AddEventListener("click", false, "a", func(*Event) {
		trace = append(trace, "a")
		e.RemoveEventListener("click", false, "a")
		e.RemoveEventListener("click", false, "c")
		e.AddEventListener("click", false, "c", rec("c-again"))
	})
	e.AddEventListener("click", false, "b", rec("b"))
	e.AddEventListener("click", false, "c", rec("c"))
	e.AddEventListener("click", false, "d", rec("d"))

	e.DispatchEvent(&Event{Type: "click"})
	if got := len(trace); got != 3 || trace[0] != "a" || trace[1] != "b" || trace[2] != "d" {
		t.Errorf("first event: %v, want [a b d]", trace)
	}
	trace = nil
	e.DispatchEvent(&Event{Type: "click"})
	if got := len(trace); got != 3 || trace[0] != "b" || trace[1] != "d" || trace[2] != "c-again" {
		t.Errorf("second event: %v, want [b d c-again]", trace)
	}
}
