package dom

import (
	"testing"

	"repro/internal/faultpoint"
)

// stubIndex stands in for a real index: it records the tree version it
// was built at.
type stubIndex struct{ version uint64 }

// TestIndexLifecycle drives one index lifecycle per slot with a stub
// builder: the first probe after a mutation empties the slot (a page
// that keeps mutating retains no index), a counter rewound by
// RestoreVersion does not revive it, exactly the rebuildProbes-th probe
// at a settled version rebuilds, and an armed fault makes a probe scan.
func TestIndexLifecycle(t *testing.T) {
	for _, c := range []struct {
		name  string
		slot  int
		fault string
	}{
		{"path", PathIndexSlot, faultpoint.PointIndexBuild},
		{"fulltext", FTIndexSlot, faultpoint.PointFTIndexBuild},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer faultpoint.Reset()
			builds := 0
			ix := Index[stubIndex]{Slot: c.slot, Fault: c.fault, Build: func(root *Node) *stubIndex {
				builds++
				return &stubIndex{version: root.rootVersion()}
			}}
			doc := NewDocument()
			root := NewElement(Name("root"))
			mustAppend(t, doc, root)
			slot := func() *indexEntry { return doc.side.Load().indexes[c.slot].Load() }

			held, built := ix.Probe(doc)
			if held == nil || !built {
				t.Fatal("cold Probe did not build")
			}
			if d, built := ix.Probe(doc); d != held || built || ix.For(doc) != held || ix.Fresh(doc) != held {
				t.Fatal("a current index was not returned as it is")
			}

			v0 := doc.Version()
			root.SetAttr(Name("n"), "x")
			if d, _ := ix.Probe(doc); d != nil {
				t.Fatal("first probe after a mutation rebuilt")
			}
			if e := slot(); e.val != nil || e.version != neverFresh {
				t.Fatalf("slot holds %v at version %d after a stale probe, want no index", e.val, e.version)
			}
			if held.version == doc.Version() || ix.Fresh(doc) != nil {
				t.Fatal("the held index reads as current")
			}

			// Rewinding the counter to the build version must not
			// revive the slot; the other slot, never filled, stays
			// empty.
			doc.RestoreVersion(v0)
			if ix.Fresh(doc) != nil {
				t.Fatal("a rewound counter revived the slot")
			}
			if e := doc.side.Load().indexes[1-c.slot].Load(); e != nil {
				t.Fatal("RestoreVersion filled an empty slot")
			}
			root.SetAttr(Name("n"), "y")

			for i := 1; i < rebuildProbes; i++ {
				if d, _ := ix.Probe(doc); d != nil {
					t.Fatalf("probe %d at the settled version rebuilt", i)
				}
			}
			d, built := ix.Probe(doc)
			if d == nil || !built || d.version != doc.Version() {
				t.Fatalf("probe %d at the settled version did not rebuild", rebuildProbes)
			}
			if builds != 2 {
				t.Fatalf("builds = %d, want 2", builds)
			}

			// A probe that would build scans while the fault is armed,
			// and the next one builds once it clears.
			root.SetAttr(Name("n"), "z")
			for i := 1; i < rebuildProbes; i++ {
				ix.Probe(doc)
			}
			faultpoint.Enable(c.fault, faultpoint.Always())
			if d, built := ix.Probe(doc); d != nil || built {
				t.Fatal("probe built through an armed fault")
			}
			faultpoint.Reset()
			if d, built := ix.Probe(doc); d == nil || !built || builds != 3 {
				t.Fatalf("probe after the fault cleared: built=%v, builds = %d, want a third build", built, builds)
			}
		})
	}
}
