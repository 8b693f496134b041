package update

import (
	"errors"
	"testing"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/markup"
)

// textChild returns the first text child of r (the "hello" node in the
// rollback fixture).
func textChild(t *testing.T, n *dom.Node) *dom.Node {
	t.Helper()
	for _, c := range n.Children() {
		if c.Type == dom.TextNode {
			return c
		}
	}
	t.Fatal("no text child")
	return nil
}

// TestAtomicRollbackPerKind drives one failing primitive of every Kind
// through Apply, preceded by a successful insert, and asserts the
// all-or-nothing contract: the document serialises byte-identical to
// its pre-apply state, the version counter is restored, the rollback
// counter advances and no primitive is ever reported to onChange.
func TestAtomicRollbackPerKind(t *testing.T) {
	const src = `<r a1="1" a2="2">hello<a k="v"><b/></a><c/></r>`
	cases := []struct {
		kind Kind
		// fail builds the failing primitive against the parsed fixture.
		fail func(t *testing.T, doc, r *dom.Node) Primitive
		// armFault injects the failure instead (Delete never fails on
		// its own).
		armFault bool
	}{
		{kind: InsertInto, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertInto, Target: textChild(t, r),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: InsertIntoFirst, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertIntoFirst, Target: textChild(t, r),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: InsertIntoLast, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertIntoLast, Target: textChild(t, r),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: InsertBefore, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertBefore, Target: dom.NewElement(dom.Name("orphan")),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: InsertAfter, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertAfter, Target: dom.NewElement(dom.Name("orphan")),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: InsertAttributes, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: InsertAttributes, Target: r,
				Content: []*dom.Node{dom.NewText("not an attribute")}}
		}},
		{kind: Delete, armFault: true, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: Delete, Target: el(t, doc, "c")}
		}},
		{kind: ReplaceNode, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: ReplaceNode, Target: dom.NewElement(dom.Name("orphan")),
				Content: []*dom.Node{dom.NewElement(dom.Name("x"))}}
		}},
		{kind: ReplaceValue, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: ReplaceValue, Target: doc, Value: "nope"}
		}},
		{kind: Rename, fail: func(t *testing.T, doc, r *dom.Node) Primitive {
			return Primitive{Kind: Rename, Target: textChild(t, r), Name: dom.Name("x")}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			defer faultpoint.Reset()
			doc := tree(t, src)
			r := el(t, doc, "r")
			before := markup.Serialize(doc)
			v0 := doc.Version()
			rb0 := Rollbacks()

			p := &PUL{}
			// A successful primitive first, so the rollback has real
			// work to undo (InsertInto is in the first apply phase,
			// before or alongside every failing kind).
			if err := p.Add(Primitive{Kind: InsertInto, Target: r,
				Content: []*dom.Node{dom.NewElement(dom.Name("ok"))}}); err != nil {
				t.Fatal(err)
			}
			if err := p.Add(tc.fail(t, doc, r)); err != nil {
				t.Fatal(err)
			}
			if tc.armFault {
				// Two primitives → the fault point's second hit guards
				// the failing one.
				faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(2))
			}

			calls := 0
			err := p.Apply(func(Primitive) { calls++ })
			if err == nil {
				t.Fatalf("%s: apply unexpectedly succeeded", tc.kind)
			}
			if calls != 0 {
				t.Errorf("onChange saw %d primitives of a rolled-back apply", calls)
			}
			if got := markup.Serialize(doc); got != before {
				t.Errorf("document not restored:\n before %s\n  after %s", before, got)
			}
			if v := doc.Version(); v != v0 {
				t.Errorf("version = %d, want restored %d", v, v0)
			}
			if rb := Rollbacks(); rb != rb0+1 {
				t.Errorf("Rollbacks() = %d, want %d", rb, rb0+1)
			}
			if p.Empty() {
				t.Error("failed apply must keep the pending list")
			}
		})
	}
}

// TestAtomicRollbackMixed applies one primitive of almost every kind
// successfully, fails the last via the fault point, and asserts the
// document comes back serialisation-identical — then retries without
// the fault and asserts the same list applies cleanly (a failed apply
// keeps the PUL intact).
func TestAtomicRollbackMixed(t *testing.T) {
	defer faultpoint.Reset()
	doc := tree(t, `<r a1="1" a2="2">hello<a k="v"><b/></a><c/><d/>tail</r>`)
	r := el(t, doc, "r")
	before := markup.Serialize(doc)
	v0 := doc.Version()

	p := &PUL{}
	add := func(pr Primitive) {
		t.Helper()
		if err := p.Add(pr); err != nil {
			t.Fatal(err)
		}
	}
	add(Primitive{Kind: InsertInto, Target: r, Content: []*dom.Node{dom.NewElement(dom.Name("ok1"))}})
	add(Primitive{Kind: InsertAttributes, Target: r, Content: []*dom.Node{
		dom.NewAttr(dom.Name("a2"), "changed"), dom.NewAttr(dom.Name("new"), "n")}})
	add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "newtext"})
	add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
	add(Primitive{Kind: InsertBefore, Target: el(t, doc, "c"), Content: []*dom.Node{dom.NewElement(dom.Name("m"))}})
	add(Primitive{Kind: InsertAfter, Target: el(t, doc, "c"), Content: []*dom.Node{
		dom.NewElement(dom.Name("n1")), dom.NewElement(dom.Name("n2"))}})
	add(Primitive{Kind: InsertIntoFirst, Target: r, Content: []*dom.Node{dom.NewElement(dom.Name("first"))}})
	add(Primitive{Kind: ReplaceNode, Target: el(t, doc, "d"), Content: []*dom.Node{
		dom.NewElement(dom.Name("d2")), dom.NewText("dtail")}})
	add(Primitive{Kind: Delete, Target: el(t, doc, "c")})

	// Fail on the last primitive: eight succeed, the ninth rolls all
	// of them back.
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(int64(p.Len())))
	if err := p.Apply(nil); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := markup.Serialize(doc); got != before {
		t.Fatalf("document not restored:\n before %s\n  after %s", before, got)
	}
	if v := doc.Version(); v != v0 {
		t.Fatalf("version = %d, want restored %d", v, v0)
	}

	// The list survived the failure; with the fault disarmed the same
	// apply succeeds end to end.
	faultpoint.Reset()
	calls := 0
	if err := p.Apply(func(Primitive) { calls++ }); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 9 {
		t.Fatalf("onChange calls = %d, want 9", calls)
	}
	if got := markup.Serialize(doc); got == before {
		t.Fatal("retry applied nothing")
	}
	if !p.Empty() {
		t.Fatal("successful apply must clear the list")
	}
}

// TestRollbackRestoresAttributeOrder deletes a middle attribute, fails
// the next primitive, and asserts the attribute list (and so the
// serialised form) comes back in the original order.
func TestRollbackRestoresAttributeOrder(t *testing.T) {
	defer faultpoint.Reset()
	doc := tree(t, `<r a="1" b="2" c="3"><x/></r>`)
	r := el(t, doc, "r")
	before := markup.Serialize(doc)

	p := &PUL{}
	_ = p.Add(Primitive{Kind: Delete, Target: r.AttrNode(dom.Name("b"))})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "x")})
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(2))
	if err := p.Apply(nil); err == nil {
		t.Fatal("apply unexpectedly succeeded")
	}
	if got := markup.Serialize(doc); got != before {
		t.Fatalf("attribute order not restored:\n before %s\n  after %s", before, got)
	}
}

// TestRollbackKeepsDocumentOrderFresh asserts the rolled-back tree
// answers document-order comparisons correctly even though the version
// counter was rewound (the stamps are recomputed on restore).
func TestRollbackKeepsDocumentOrderFresh(t *testing.T) {
	defer faultpoint.Reset()
	doc := tree(t, `<r><a/><b/></r>`)
	a, b := el(t, doc, "a"), el(t, doc, "b")
	if dom.CompareOrder(a, b) != -1 {
		t.Fatal("fixture order broken")
	}
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertBefore, Target: a, Content: []*dom.Node{dom.NewElement(dom.Name("z"))}})
	_ = p.Add(Primitive{Kind: Delete, Target: b})
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(2))
	if err := p.Apply(nil); err == nil {
		t.Fatal("apply unexpectedly succeeded")
	}
	faultpoint.Reset()
	// Mutate again so the version climbs back over the rolled-back
	// window; stale stamps from mid-apply must not win.
	if err := el(t, doc, "r").AppendChild(dom.NewElement(dom.Name("tail"))); err != nil {
		t.Fatal(err)
	}
	if dom.CompareOrder(a, b) != -1 {
		t.Error("a should still precede b after rollback")
	}
	if dom.CompareOrder(b, a) != 1 {
		t.Error("b should follow a after rollback")
	}
}
