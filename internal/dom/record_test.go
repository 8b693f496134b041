package dom

import (
	"fmt"
	"testing"
)

// exactLists reports a list of n's subtree whose capacity is not its
// length: a later append to it would write into a neighbour's range.
func exactLists(n *Node) error {
	var err error
	n.Walk(func(c *Node) bool {
		if k, a := c.Children(), c.Attrs(); cap(k) != len(k) || cap(a) != len(a) {
			err = fmt.Errorf("<%s>: children %d of %d, attributes %d of %d", c.Name, len(k), cap(k), len(a), cap(a))
		}
		return err == nil
	})
	return err
}

// recordSample records <r a="1" b="2"><e k="v"/>t<!--c--><?p d?><f/></r>, a
// text root and a comment root.
func recordSample(r *Recorder) {
	str := func(s string) Str {
		r.Append(s)
		return r.Take()
	}
	r.Open(ElementNode)
	r.Leaf(AttributeNode, Str{}, Str{}, r.Str("a"), str("1"))
	r.Leaf(AttributeNode, Str{}, Str{}, r.Str("b"), str("2"))
	r.Open(ElementNode)
	r.Leaf(AttributeNode, Str{}, Str{}, str("k"), str("v"))
	r.Close(Str{}, Str{}, r.Str("e"))
	r.Leaf(TextNode, Str{}, Str{}, Str{}, str("t"))
	r.Leaf(CommentNode, Str{}, Str{}, Str{}, str("c"))
	r.Leaf(ProcessingInstructionNode, Str{}, Str{}, r.Str("p"), str("d"))
	r.Open(ElementNode)
	r.Close(Str{}, Str{}, r.Str("f"))
	r.Close(r.Str("urn:r"), r.Str("x"), str("r"))
	r.Leaf(TextNode, Str{}, Str{}, Str{}, str("top"))
	r.Leaf(CommentNode, Str{}, Str{}, Str{}, str("end"))
}

// A recording builds through one builder whose blocks it uses up
// exactly, every list of the tree as long as its capacity, the roots in
// the order recorded, and the recorder empty for the next recording.
func TestRecorderSizesItsBuilderExactly(t *testing.T) {
	var r Recorder
	for round := range 2 {
		recordSample(&r)
		b := newBuilder(r.elems, r.leaves, r.slots)
		roots := r.build(&b, nil)
		r.reset()
		if len(b.elems)+len(b.elemsTail) != 0 || len(b.leaves)+len(b.leavesTail) != 0 || len(b.slots) != 0 {
			t.Fatalf("round %d: left %d elements, %d leaves and %d slots of the blocks", round,
				len(b.elems)+len(b.elemsTail), len(b.leaves)+len(b.leavesTail), len(b.slots))
		}
		if len(roots) != 3 || roots[1].Data != "top" || roots[2].Data != "end" {
			t.Fatalf("round %d: roots %v", round, roots)
		}
		el := roots[0]
		if el.Name != (QName{Space: "urn:r", Prefix: "x", Local: "r"}) || el.AttrValue("a") != "1" || el.AttrValue("b") != "2" {
			t.Errorf("round %d: root element %v with %v", round, el.Name, el.Attrs())
		}
		kids := el.Children()
		if len(kids) != 5 || kids[0].AttrValue("k") != "v" || kids[1].Data != "t" || kids[2].Type != CommentNode ||
			kids[3].Name.Local != "p" || kids[3].Data != "d" || kids[4].Name.Local != "f" {
			t.Errorf("round %d: children %v", round, kids)
		}
		for _, n := range roots {
			if n.Parent() != nil {
				t.Errorf("round %d: root %v has a parent", round, n)
			}
			if err := exactLists(n); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
		if len(r.recs)+len(r.kids)+int(r.open)+len(r.text)+len(r.table) != 0 {
			t.Errorf("round %d: the recorder is not empty after Build", round)
		}
	}
}

// Character data appended between two Takes is one text node, and an
// empty one is none.
func TestRecorderTextNodes(t *testing.T) {
	var r Recorder
	r.Open(ElementNode)
	r.Leaf(TextNode, Str{}, Str{}, Str{}, r.Take())
	r.Append("a")
	r.Append("")
	r.Append("b")
	r.Leaf(TextNode, Str{}, Str{}, Str{}, r.Take())
	r.Leaf(TextNode, Str{}, Str{}, Str{}, r.Take())
	r.Close(Str{}, Str{}, r.Str("e"))
	e := r.Build(nil)[0]
	if kids := e.Children(); len(kids) != 1 || kids[0].Data != "ab" {
		t.Fatalf("children %v", kids)
	}
	if err := exactLists(e); err != nil {
		t.Error(err)
	}
}

// A document keeps its children in one exact list; a root attribute is a
// parentless attribute; an attribute after content is a bug.
func TestRecorderDocumentsAndRootAttributes(t *testing.T) {
	var r Recorder
	r.Open(DocumentNode)
	r.Open(ElementNode)
	r.Close(Str{}, Str{}, r.Str("e"))
	r.Leaf(CommentNode, Str{}, Str{}, Str{}, r.Str("c"))
	r.Close(Str{}, Str{}, Str{})
	r.Leaf(AttributeNode, Str{}, Str{}, r.Str("a"), r.Str("1"))
	roots := r.Build(nil)
	if len(roots) != 2 || cap(roots) != 2 || roots[0].Type != DocumentNode || len(roots[0].Children()) != 2 ||
		roots[1].Type != AttributeNode || roots[1].Parent() != nil || roots[1].Data != "1" {
		t.Fatalf("roots %v", roots)
	}
	if err := exactLists(roots[0]); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("an attribute after content must panic")
		}
	}()
	r.Open(ElementNode)
	r.Leaf(TextNode, Str{}, Str{}, Str{}, r.Str("t"))
	r.Leaf(AttributeNode, Str{}, Str{}, r.Str("a"), Str{})
}
