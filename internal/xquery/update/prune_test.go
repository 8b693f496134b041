package update

import (
	"errors"
	"fmt"
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

// isSubsequence reports whether sub is ref with some elements left out.
func isSubsequence(sub, ref []string) bool {
	i := 0
	for _, r := range ref {
		if i < len(sub) && sub[i] == r {
			i++
		}
	}
	return i == len(sub)
}

// checkPrunedAgainstApply applies ref with the reference Apply and
// pruned with ApplyPruned — the same list built against two parses of
// one source — and asserts what the pre-pass promises: identical
// serialisations, identical error presence, and an onChange sequence
// that is the reference's minus exactly the eliminated primitives.
func checkPrunedAgainstApply(t *testing.T, docR, docP *dom.Node, ref, pruned *PUL) (eliminated int, err error) {
	t.Helper()
	onR, seqR := reporter(docR)
	onP, seqP := reporter(docP)
	errR := ref.Apply(onR)
	eliminated, errP := pruned.ApplyPruned(onP)
	if (errR == nil) != (errP == nil) {
		t.Fatalf("error mismatch: Apply %v, ApplyPruned %v", errR, errP)
	}
	if r, p := markup.Serialize(docR), markup.Serialize(docP); r != p {
		t.Fatalf("trees diverged (err=%v):\n Apply       %s\n ApplyPruned %s", errR, r, p)
	}
	if errR != nil {
		if len(*seqR)+len(*seqP) != 0 {
			t.Fatalf("onChange saw a rolled-back apply: %v / %v", *seqR, *seqP)
		}
		return 0, errP
	}
	if len(*seqR)-len(*seqP) != eliminated || !isSubsequence(*seqP, *seqR) {
		t.Fatalf("onChange of the survivors is not Apply's minus %d eliminated:\n Apply       %v\n ApplyPruned %v",
			eliminated, *seqR, *seqP)
	}
	return eliminated, nil
}

// runBothApplies builds the same primitive list against two parses of
// src and checks the pruned apply of one against Apply on the other.
func runBothApplies(t *testing.T, src string, build func(t *testing.T, doc *dom.Node, p *PUL)) (eliminated int) {
	t.Helper()
	docR, docP := tree(t, src), tree(t, src)
	ref, pruned := &PUL{}, &PUL{}
	build(t, docR, ref)
	build(t, docP, pruned)
	eliminated, _ = checkPrunedAgainstApply(t, docR, docP, ref, pruned)
	return eliminated
}

// TestUnconditionalElimination drops the exact no-ops: a delete of a
// replaced target and a duplicate delete.
func TestUnconditionalElimination(t *testing.T) {
	const src = `<r><a/><b/></r>`
	eliminated := runBothApplies(t, src, func(t *testing.T, doc *dom.Node, p *PUL) {
		a, b := el(t, doc, "a"), el(t, doc, "b")
		_ = p.Add(Primitive{Kind: ReplaceNode, Target: a,
			Content: []*dom.Node{dom.NewElement(dom.Name("a2"))}})
		_ = p.Add(Primitive{Kind: Delete, Target: a}) // replace-then-delete: dead
		_ = p.Add(Primitive{Kind: Delete, Target: b})
		_ = p.Add(Primitive{Kind: Delete, Target: b}) // duplicate: dead
	})
	if eliminated != 2 {
		t.Errorf("eliminated = %d, want 2", eliminated)
	}
}

// TestPrunedApplyRollback fails a pruned list mid-apply and asserts the
// all-or-nothing contract: byte-identical document, restored version
// counter, intact pending list (the eliminated primitive included),
// silent onChange — then a clean retry.
func TestPrunedApplyRollback(t *testing.T) {
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
	_, err := p.ApplyPruned(func(Primitive) { calls++ })
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
	eliminated, err := p.ApplyPruned(func(Primitive) { calls++ })
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 4 || eliminated != 1 {
		t.Errorf("onChange calls = %d, eliminated = %d, want 4 and 1", calls, eliminated)
	}
	if !p.Empty() {
		t.Error("successful apply must clear the list")
	}
}

// TestPrunedApplyRollbackSeededFault drives the seeded chaos trigger
// through pruned applies and asserts every failed apply restores the
// pre-apply serialisation exactly (the mid-apply entry of the chaos
// matrix, deterministic for a fixed seed).
func TestPrunedApplyRollbackSeededFault(t *testing.T) {
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
		_, err := p.ApplyPruned(nil)
		if err != nil {
			if got := markup.Serialize(doc); got != before {
				t.Fatalf("seed %d: not restored:\n before %s\n  after %s", seed, before, got)
			}
		} else if got := markup.Serialize(doc); got == before {
			t.Fatalf("seed %d: successful apply changed nothing", seed)
		}
		faultpoint.Disable(faultpoint.PointUpdateApply)
	}
}

// TestPrunedApplyRollbackAcrossDocuments runs one list over two trees:
// a failed apply restores the bytes and rewinds the version counter of
// both, and the retry applies to both.
func TestPrunedApplyRollbackAcrossDocuments(t *testing.T) {
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
	if _, err := p.ApplyPruned(nil); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if markup.Serialize(doc1) != before1 || markup.Serialize(doc2) != before2 {
		t.Fatalf("documents not restored: %s / %s", markup.Serialize(doc1), markup.Serialize(doc2))
	}
	if doc1.Version() != v1 || doc2.Version() != v2 {
		t.Errorf("versions = %d, %d, want restored %d, %d", doc1.Version(), doc2.Version(), v1, v2)
	}

	faultpoint.Reset()
	if _, err := p.ApplyPruned(nil); err != nil {
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
// (reference and pruned alike) instead of poisoning the tree with a
// state the rollback machinery cannot restore.
func TestRenameDuplicateAttributeRollback(t *testing.T) {
	for _, pruned := range []bool{false, true} {
		doc := tree(t, `<r><b k="v" p="w"/></r>`)
		before := markup.Serialize(doc)
		p := &PUL{}
		_ = p.Add(Primitive{Kind: InsertAttributes, Target: el(t, doc, "b"),
			Content: []*dom.Node{dom.NewAttr(dom.Name("q"), "x")}})
		_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b").AttrNode(dom.Name("k")),
			Name: dom.Name("p")})
		var err error
		if pruned {
			_, err = p.ApplyPruned(nil)
		} else {
			err = p.Apply(nil)
		}
		if err == nil {
			t.Fatalf("pruned=%v: duplicate-attribute rename must fail", pruned)
		}
		if got := markup.Serialize(doc); got != before {
			t.Fatalf("pruned=%v: not restored:\n before %s\n  after %s", pruned, before, got)
		}
	}
}

// TestSnapshotCounters asserts the process-wide counters advance: one
// per applied list, one per dropped primitive, and nothing for the
// parallel applies that no longer exist.
func TestSnapshotCounters(t *testing.T) {
	before := Snapshot()
	doc := tree(t, `<r><a>x</a><b><b1/></b></r>`)
	p := &PUL{}
	_ = p.Add(Primitive{Kind: ReplaceValue, Target: el(t, doc, "a"), Value: "1"})
	_ = p.Add(Primitive{Kind: Rename, Target: el(t, doc, "b"), Name: dom.Name("bb")})
	b1 := el(t, doc, "b1")
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	_ = p.Add(Primitive{Kind: Delete, Target: b1})
	if _, err := p.ApplyPruned(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyPruned(nil); err != nil { // empty: counts nothing
		t.Fatal(err)
	}
	after := Snapshot()
	if after.Eliminated != before.Eliminated+1 {
		t.Errorf("Eliminated delta = %d, want 1", after.Eliminated-before.Eliminated)
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
// second ordering pass, nothing for a pre-pass that has nothing to drop.
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
		if _, err := p.ApplyPruned(nil); err != nil {
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
