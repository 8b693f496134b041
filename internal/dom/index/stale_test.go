package index

import (
	"testing"

	"repro/internal/dom"
)

// TestProbeDropsStaleMaps: a page that keeps mutating never rebuilds,
// so the index it built at load would stay reachable from the root's
// slot for the page's whole life. The first probe that finds it stale
// must leave only the probe counters behind.
func TestProbeDropsStaleMaps(t *testing.T) {
	doc := dom.NewDocument()
	root := dom.NewElement(dom.Name("root"))
	if err := doc.AppendChild(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := root.AppendChild(dom.NewElement(dom.Name("b"))); err != nil {
			t.Fatal(err)
		}
	}
	held := Probe(doc)
	if held == nil || held.names == nil {
		t.Fatal("cold Probe did not build")
	}
	base := Snapshot().Builds

	v0 := doc.Version()
	root.SetAttr(dom.Name("n"), "x")
	if Probe(doc) != nil {
		t.Fatal("first probe after a mutation rebuilt")
	}
	slot, ok := doc.LoadIndexCache().(*Doc)
	if !ok || slot == held {
		t.Fatalf("slot still holds the stale index (%v)", ok)
	}
	if slot.names != nil || slot.ids != nil {
		t.Fatal("the Doc left in the slot holds maps")
	}

	// The Doc a caller still holds is what it always was: stale.
	if _, ok := held.DescendantsByName(doc, "", "b", false); ok {
		t.Fatal("held stale index answered")
	}

	// Rewinding the counter to the build version must not revive the
	// slot (the held Doc would read as fresh there; the slot must not).
	doc.RestoreVersion(v0)
	if Fresh(doc) != nil {
		t.Fatal("a rewound counter revived the slot")
	}
	root.SetAttr(dom.Name("n"), "y")

	// The counters moved with the swap: the fourth probe at one
	// version still rebuilds, and only the fourth.
	for i := 1; i < rebuildProbes; i++ {
		if Probe(doc) != nil {
			t.Fatalf("probe %d at the settled version rebuilt", i)
		}
	}
	d := Probe(doc)
	if d == nil || d.names == nil {
		t.Fatalf("probe %d at the settled version did not rebuild", rebuildProbes)
	}
	if got := Snapshot().Builds - base; got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	if got, ok := d.DescendantsByName(doc, "", "b", false); !ok || len(got) != 3 {
		t.Fatalf("rebuilt index finds %d <b> (ok=%v), want 3", len(got), ok)
	}
}
