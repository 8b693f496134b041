package update

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/markup"
)

func TestAddRejectsNilTarget(t *testing.T) {
	p := &PUL{}
	err := p.Add(Primitive{Kind: Delete})
	if !errors.Is(err, ErrNilTarget) {
		t.Fatalf("Add(nil target) = %v, want ErrNilTarget", err)
	}
	if !p.Empty() {
		t.Fatal("rejected primitive entered the list")
	}
	// Merge validates through Add, so a hand-built list with a nil
	// target cannot cross into a healthy one.
	q := &PUL{prims: []Primitive{{Kind: Rename, Name: dom.Name("x")}}}
	if err := p.Merge(q); !errors.Is(err, ErrNilTarget) {
		t.Fatalf("Merge(nil target) = %v, want ErrNilTarget", err)
	}
}

// reporter names each primitive onChange reports by its kind and the
// pre-apply document-order position of its target, so the sequences of
// two parses of one source compare.
func reporter(doc *dom.Node) (onChange func(Primitive), seq *[]string) {
	ord := map[*dom.Node]int{}
	for i, n := range collectNodes(doc) {
		ord[n] = i + 1
	}
	seq = new([]string)
	return func(pr Primitive) {
		*seq = append(*seq, fmt.Sprintf("%s@%d", pr.Kind, ord[pr.Target]))
	}, seq
}

// checkAgainstApply applies ref and got with Apply — the same list
// built against two parses of one source, got possibly after a faulted
// attempt — and asserts that they agree: identical serialisations,
// identical error presence, and identical onChange sequences.
func checkAgainstApply(t *testing.T, docR, docG *dom.Node, ref, got *PUL) error {
	t.Helper()
	onR, seqR := reporter(docR)
	onG, seqG := reporter(docG)
	errR, errG := ref.Apply(onR), got.Apply(onG)
	if (errR == nil) != (errG == nil) {
		t.Fatalf("error mismatch: reference %v, retried %v", errR, errG)
	}
	if r, g := markup.Serialize(docR), markup.Serialize(docG); r != g {
		t.Fatalf("trees diverged (err=%v):\n reference %s\n retried   %s", errR, r, g)
	}
	if errR != nil {
		if len(*seqR)+len(*seqG) != 0 {
			t.Fatalf("onChange saw a rolled-back apply: %v / %v", *seqR, *seqG)
		}
		return errG
	}
	if !slices.Equal(*seqR, *seqG) {
		t.Fatalf("onChange sequences differ:\n reference %v\n retried   %v", *seqR, *seqG)
	}
	return nil
}

// TestUnconditionalElimination applies the two exact no-ops a list can
// hold, the delete of a node the list replaces and a second delete of
// one node: Apply eliminates them unconditionally, as each finds its
// target already detached, so the tree comes out as it does from the
// list without them. onChange still reports them, in application order.
func TestUnconditionalElimination(t *testing.T) {
	const src = `<r><a/><b/></r>`
	build := func(noOps bool) (*dom.Node, *PUL) {
		doc := tree(t, src)
		a, b := el(t, doc, "a"), el(t, doc, "b")
		p := &PUL{}
		_ = p.Add(Primitive{Kind: ReplaceNode, Target: a,
			Content: []*dom.Node{dom.NewElement(dom.Name("a2"))}})
		if noOps {
			_ = p.Add(Primitive{Kind: Delete, Target: a}) // replace-then-delete
		}
		_ = p.Add(Primitive{Kind: Delete, Target: b})
		if noOps {
			_ = p.Add(Primitive{Kind: Delete, Target: b}) // duplicate
		}
		return doc, p
	}
	docN, with := build(true)
	docW, without := build(false)
	on, seq := reporter(docN)
	if err := with.Apply(on); err != nil {
		t.Fatal(err)
	}
	if err := without.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if got, want := markup.Serialize(docN), markup.Serialize(docW); got != want || got != `<r><a2/></r>` {
		t.Errorf("with the no-ops %s, without %s, want <r><a2/></r>", got, want)
	}
	if want := []string{"replaceNode@2", "delete@2", "delete@3", "delete@3"}; !slices.Equal(*seq, want) {
		t.Errorf("onChange reported %v, want %v", *seq, want)
	}
}

// TestApplyRollback fails a list mid-apply and asserts the
// all-or-nothing contract: byte-identical document, restored version
// counter, intact pending list, silent onChange — then a clean retry
// that reports every primitive, the duplicate delete included.
func TestApplyRollback(t *testing.T) {
	defer faultpoint.Reset()
	const src = `<r><a>one</a><b/><c/><d/></r>`
	doc := tree(t, src)
	before := markup.Serialize(doc)
	v0 := doc.Version()
	rb0 := Rollbacks()

	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "two"})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
	_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "c"),
		Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "d")})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "d")})

	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(3))
	calls := 0
	err := p.Apply(func(Primitive) { calls++ })
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if calls != 0 {
		t.Errorf("onChange saw %d primitives of a rolled-back apply", calls)
	}
	if got := markup.Serialize(doc); got != before {
		t.Fatalf("document not restored:\n before %s\n  after %s", before, got)
	}
	if v := doc.Version(); v != v0 {
		t.Errorf("version = %d, want restored %d", v, v0)
	}
	if rb := Rollbacks(); rb != rb0+1 {
		t.Errorf("Rollbacks() = %d, want %d", rb, rb0+1)
	}
	if p.Len() != 5 {
		t.Fatalf("failed apply left %d pending primitives, want all 5", p.Len())
	}

	faultpoint.Reset()
	if err := p.Apply(func(Primitive) { calls++ }); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 5 {
		t.Errorf("onChange calls = %d, want 5", calls)
	}
	if !p.Empty() {
		t.Error("successful apply must clear the list")
	}
}

// TestApplyRollbackSeededFault drives the seeded chaos trigger
// through applies and asserts every failed apply restores the
// pre-apply serialisation exactly (the mid-apply entry of the chaos
// matrix, deterministic for a fixed seed).
func TestApplyRollbackSeededFault(t *testing.T) {
	defer faultpoint.Reset()
	const src = `<r><a>one</a><b k="v"/><c><c1/></c><d/></r>`
	for seed := uint64(1); seed <= 8; seed++ {
		faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Seeded(seed, 0.3))
		doc := tree(t, src)
		before := markup.Serialize(doc)
		p := &PUL{}
		_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "two"})
		_ = p.Add(Primitive{Kind: InsertAttributes, Target: el(t, doc, "b"),
			Content: []*dom.Node{dom.NewAttr(dom.Name("k"), "w")}})
		_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc, "c1")})
		_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc, "d"),
			Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})
		if err := p.Apply(nil); err != nil {
			if got := markup.Serialize(doc); got != before {
				t.Fatalf("seed %d: not restored:\n before %s\n  after %s", seed, before, got)
			}
		} else if got := markup.Serialize(doc); got == before {
			t.Fatalf("seed %d: successful apply changed nothing", seed)
		}
		faultpoint.Disable(faultpoint.PointUpdateApply)
	}
}

// TestApplyRollbackAcrossDocuments runs one list over two trees:
// a failed apply restores the bytes and rewinds the version counter of
// both, and the retry applies to both.
func TestApplyRollbackAcrossDocuments(t *testing.T) {
	defer faultpoint.Reset()
	doc1 := tree(t, `<r><a><a1>x</a1></a><b/><c/></r>`)
	doc2 := tree(t, `<q><b>y</b></q>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc1, "a1"), Value: "detached"})
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc2, "b"), Value: "2"})
	_ = p.Add(Primitive{Kind: Delete, Target: el(t, doc1, "a")})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc1, "b"), Name: dom.Name("bb")})
	_ = p.Add(Primitive{Kind: InsertInto, Target: el(t, doc1, "c"),
		Content: []*dom.Node{dom.NewElement(dom.Name("x"))}})

	before1, before2 := markup.Serialize(doc1), markup.Serialize(doc2)
	v1, v2 := doc1.Version(), doc2.Version()
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(4))
	if err := p.Apply(nil); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if markup.Serialize(doc1) != before1 || markup.Serialize(doc2) != before2 {
		t.Fatalf("documents not restored: %s / %s", markup.Serialize(doc1), markup.Serialize(doc2))
	}
	if doc1.Version() != v1 || doc2.Version() != v2 {
		t.Errorf("versions = %d, %d, want restored %d, %d", doc1.Version(), doc2.Version(), v1, v2)
	}

	faultpoint.Reset()
	if err := p.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if got := markup.Serialize(doc1); got != `<r><bb/><c><x/></c></r>` {
		t.Errorf("doc1 = %s", got)
	}
	if got := markup.Serialize(doc2); got != `<q><b>2</b></q>` {
		t.Errorf("doc2 = %s", got)
	}
}

// TestRenameDuplicateAttributeRollback pins the XUDY0021-style check:
// a rename that would duplicate an attribute name fails the apply
// instead of poisoning the tree with a state the rollback machinery
// cannot restore.
func TestRenameDuplicateAttributeRollback(t *testing.T) {
	doc := tree(t, `<r><b k="v" p="w"/></r>`)
	before := markup.Serialize(doc)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: InsertAttributes, Target: el(t, doc, "b"),
		Content: []*dom.Node{dom.NewAttr(dom.Name("q"), "x")}})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b").AttrNode(dom.Name("k")),
		Name: dom.Name("p")})
	if err := p.Apply(nil); err == nil {
		t.Fatal("duplicate-attribute rename must fail")
	}
	if got := markup.Serialize(doc); got != before {
		t.Fatalf("not restored:\n before %s\n  after %s", before, got)
	}
}

// TestSnapshotCounters asserts the process-wide counters: Groups
// advances by one per applied non-empty list, and Eliminated and
// ParallelApplies, left over from the pre-pass and the parallel apply,
// stay where they are.
func TestSnapshotCounters(t *testing.T) {
	before := Snapshot()
	doc := tree(t, `<r><a>x</a><b><b1/></b></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "1"})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
	b1 := el(t, doc, "b1")
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	if err := p.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(nil); err != nil { // empty: counts nothing
		t.Fatal(err)
	}
	after := Snapshot()
	if after.Eliminated != before.Eliminated {
		t.Errorf("Eliminated delta = %d, want 0", after.Eliminated-before.Eliminated)
	}
	if after.Groups != before.Groups+1 {
		t.Errorf("Groups delta = %d, want 1 (one applied list)", after.Groups-before.Groups)
	}
	if after.ParallelApplies != 0 {
		t.Errorf("ParallelApplies = %d, want 0", after.ParallelApplies)
	}
}

// TestListenerTurnApplyAllocs pins what the apply path costs on the
// list every listener turn of the table page produces — a delete and an
// insert on one tree: the ordered copy, the undo log and one inverse
// closure per primitive. No version map (one tree), no
// second ordering pass.
func TestListenerTurnApplyAllocs(t *testing.T) {
	doc := tree(t, `<r><table id="t"><tr/></table><p/></r>`)
	r := el(t, doc, "r")
	// Each turn deletes the attached table and inserts the detached
	// one, so the next turn finds them with roles swapped and the
	// measured function allocates nothing of its own.
	in, out := r.FirstChild(), dom.NewElement(dom.Name("table"))
	inList, outList := []*dom.Node{in}, []*dom.Node{out}
	p := &PUL{}
	allocs := testing.AllocsPerRun(200, func() {
		p.prims = append(p.prims[:0],
			Primitive{Kind: Delete, Target: in},
			Primitive{Kind: InsertInto, Target: r, Content: outList})
		if err := p.Apply(nil); err != nil {
			t.Fatal(err)
		}
		in, out, inList, outList = out, in, outList, inList
	})
	if allocs != 4 {
		t.Errorf("a delete + insert turn allocates %.0f objects in apply, want 4", allocs)
	}
	if n := len(r.Children()); n != 2 {
		t.Errorf("<r> has %d children after the turns, want <p/> and one table", n)
	}
}
