package update

import (
	"errors"
	"testing"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/markup"
)

// FuzzPULPartition compares a faulted-then-retried Apply with a
// fault-free one: an arbitrary byte string is decoded into a pending
// update list, the same list is built against two parses of one
// document, and the two applies must agree — same error presence,
// byte-identical live documents (after rollback too), and the same
// onChange sequence. The input's first byte arms an update.apply fault
// in front of the second apply (bits 1-3: the Nth primitive, 0 for
// none), which has to leave bytes, version and pending list untouched
// before the retry is compared; bit 0 is ignored (it once switched a
// rule of a pre-pass that no longer exists, and the committed corpus
// still sets it). (Nothing is partitioned any more; the name stays
// because the committed corpus under testdata/fuzz and the tier-1
// floor list are keyed by it.)
func FuzzPULPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{1, 7, 0, 7, 2, 7, 9, 3})
	f.Add([]byte{0, 8, 1, 8, 10, 4, 10, 4})
	f.Add([]byte{1, 0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 10, 6})
	f.Add([]byte{1 | 2<<1, 0, 5, 6, 5, 6, 2, 1, 9, 3})
	f.Add([]byte{0 | 1<<1, 6, 2, 6, 2, 7, 2, 0, 8})
	f.Add([]byte{1 | 3<<1, 0, 0}) // the fault is armed past the list's end
	f.Fuzz(func(t *testing.T, data []byte) {
		defer faultpoint.Reset()
		const src = `<r><a>one</a><b k="v"><b1/><b2>two</b2></b><c/><d><d1/></d></r>`
		faultAt := int64(0)
		if len(data) > 0 {
			faultAt = int64(data[0] >> 1 & 7)
		}
		if len(data) > 1 {
			data = data[1:]
		}
		// build decodes the list against a parse of its own.
		build := func() (*dom.Node, *PUL) {
			doc, err := markup.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			nodes := collectNodes(doc)
			p := &PUL{}
			for i := 0; i+1 < len(data) && i < 24; i += 2 {
				_ = p.Add(fuzzPrim(Kind(data[i]%10)+1, nodes[int(data[i+1])%len(nodes)], i))
			}
			return doc, p
		}
		docR, ref := build()
		docG, got := build()
		if ref.Len() != got.Len() {
			t.Fatalf("Add diverged: %d vs %d primitives", ref.Len(), got.Len())
		}

		if faultAt > 0 {
			docF, faulted := build()
			pending, v0 := faulted.Len(), docF.Version()
			faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(faultAt))
			reported := 0
			err := faulted.Apply(func(Primitive) { reported++ })
			faultpoint.Reset()
			// A list that is shorter than faultAt, or fails on its own
			// first, injects nothing; the untouched pair is compared.
			if errors.Is(err, faultpoint.ErrInjected) {
				if got := markup.Serialize(docF); got != src {
					t.Fatalf("faulted apply left %s", got)
				}
				if docF.Version() != v0 || faulted.Len() != pending || reported != 0 {
					t.Fatalf("faulted apply left version %d (was %d), %d pending (was %d), and reported %d primitives",
						docF.Version(), v0, faulted.Len(), pending, reported)
				}
				docG, got = docF, faulted // the retry is what gets compared
			}
		}
		if err := checkAgainstApply(t, docR, docG, ref, got); err != nil {
			if left := markup.Serialize(docG); left != src {
				t.Fatalf("failed apply left %s", left)
			}
		}
	})
}

// fuzzPrim builds one primitive of the given kind against n, with
// deterministic content derived from the list position.
func fuzzPrim(kind Kind, n *dom.Node, pos int) Primitive {
	pr := Primitive{Kind: kind, Target: n}
	switch kind {
	case InsertInto, InsertIntoFirst, InsertIntoLast, InsertBefore, InsertAfter:
		pr.Content = []*dom.Node{dom.NewElement(dom.Name(fuzzName(pos)))}
	case InsertAttributes:
		pr.Content = []*dom.Node{dom.NewAttr(dom.Name(fuzzName(pos)), "v")}
	case ReplaceNode:
		if n.Type == dom.AttributeNode {
			pr.Content = []*dom.Node{dom.NewAttr(dom.Name(fuzzName(pos)), "w")}
		} else {
			pr.Content = []*dom.Node{dom.NewElement(dom.Name(fuzzName(pos)))}
		}
	case ReplaceValue:
		pr.Value = fuzzName(pos)
	case Rename:
		pr.Name = dom.Name(fuzzName(pos))
	}
	return pr
}

func fuzzName(pos int) string {
	return string(rune('p' + pos%8))
}

// collectNodes returns the document's nodes in document order —
// elements, attributes and texts — so a byte index picks the same node
// in two parses of one source.
func collectNodes(doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		out = append(out, n)
		for _, a := range n.Attrs() {
			out = append(out, a)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, c := range doc.Children() {
		walk(c)
	}
	return out
}
