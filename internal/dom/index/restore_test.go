package index_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/faultpoint"
	ftindex "repro/internal/fulltext/index"
)

// lifecycles are the two per-document indexes, seen through what they
// share: dom's lifecycle (slot, freshness, rebuild, rollback, fault)
// behind each package's For/Probe/Fresh.
var lifecycles = []struct {
	name   string
	fault  string
	builds func() int64
	probe  func(*dom.Node) (idx any, ok bool)
	fresh  func(*dom.Node) bool
	// mids is how many <mid>mid</mid> elements a current index of the
	// tree finds.
	mids func(*dom.Node) int
}{
	{
		name:   "path",
		fault:  faultpoint.PointIndexBuild,
		builds: func() int64 { return index.Snapshot().Builds },
		probe: func(n *dom.Node) (any, bool) {
			d, _ := index.Probe(n)
			return d, d != nil
		},
		fresh: func(n *dom.Node) bool { return index.Fresh(n) != nil },
		mids: func(n *dom.Node) int {
			got, _ := index.For(n).DescendantsByName(n, "", "mid", false)
			return len(got)
		},
	},
	{
		name:   "fulltext",
		fault:  faultpoint.PointFTIndexBuild,
		builds: func() int64 { return ftindex.Snapshot().Builds },
		probe: func(n *dom.Node) (any, bool) {
			d, _ := ftindex.Probe(n)
			return d, d != nil
		},
		fresh: func(n *dom.Node) bool { return ftindex.Fresh(n) != nil },
		mids: func(n *dom.Node) int {
			if m, _ := ftindex.For(n).Match(n, ftindex.Words{Phrases: []string{"mid"}}); m {
				return 1
			}
			return 0
		},
	},
}

// TestRestoreVersionInvalidatesIndex pins the ABA hazard a rollback
// re-arms: an index built at version v+k must not read as fresh when a
// rollback rewinds the counter and later mutations climb it back to v+k
// with a different tree shape.
func TestRestoreVersionInvalidatesIndex(t *testing.T) {
	for _, c := range lifecycles {
		t.Run(c.name, func(t *testing.T) {
			doc := testDoc(t)
			root := elem(t, doc, "r")
			v0 := doc.Version()

			// Mutation #1 (simulating a primitive mid-apply), then an
			// index built at the bumped version.
			child := dom.NewElement(dom.Name("mid"))
			if err := child.AppendChild(dom.NewText("mid")); err != nil {
				t.Fatal(err)
			}
			if err := root.AppendChild(child); err != nil {
				t.Fatal(err)
			}
			v1 := doc.Version()
			if got := c.mids(doc); got != 1 {
				t.Fatalf("mid-apply index finds %d <mid>, want 1", got)
			}

			// Rollback: undo the mutation, rewind the counter.
			child.Detach()
			doc.RestoreVersion(v0)
			if doc.Version() != v0 {
				t.Fatalf("version = %d, want %d", doc.Version(), v0)
			}
			if c.fresh(doc) {
				t.Fatal("index survived a version restore")
			}

			// Climb the counter back to exactly the mid-apply build
			// version with a different mutation. Unless the rollback
			// dropped it, the stale index (which still finds <mid>)
			// would now read as fresh.
			for doc.Version() < v1 {
				if err := root.AppendChild(dom.NewElement(dom.Name("other"))); err != nil {
					t.Fatal(err)
				}
			}
			if doc.Version() != v1 {
				t.Fatalf("could not reproduce version %d", v1)
			}
			if c.fresh(doc) {
				t.Fatal("ABA: index built in a rolled-back window reads as fresh")
			}
			// A rebuild at the reproduced version must see the real tree.
			if got := c.mids(doc); got != 0 {
				t.Fatalf("rebuilt index finds %d <mid>, want 0", got)
			}
		})
	}
}

// TestProbeFaultFallsBackToScan asserts the degraded mode: a fault at
// the index's build point makes Probe report "no index" (the caller
// scans) instead of failing, and builds resume once the fault clears.
func TestProbeFaultFallsBackToScan(t *testing.T) {
	for _, c := range lifecycles {
		t.Run(c.name, func(t *testing.T) {
			defer faultpoint.Reset()
			doc := testDoc(t)
			before := c.builds()

			faultpoint.Enable(c.fault, faultpoint.Always())
			if _, ok := c.probe(doc); ok {
				t.Fatal("probe built an index through an armed build fault")
			}
			if c.builds() != before {
				t.Fatal("a build ran despite the fault")
			}

			faultpoint.Reset()
			if _, ok := c.probe(doc); !ok {
				t.Fatal("probe did not recover after the fault cleared")
			}
			if got := c.builds(); got != before+1 {
				t.Fatalf("builds = %d, want %d", got, before+1)
			}
			if _, fires := faultpoint.Stats(c.fault); fires != 0 {
				t.Fatal("stats should be zero after reset")
			}
		})
	}
}

// TestProbeReleasesStaleIndex: a page that keeps mutating never
// rebuilds, so an index built at load would stay reachable from the
// root for the page's whole life. Once a probe has found it stale,
// nothing but its holders may keep it: with none, it is collected.
func TestProbeReleasesStaleIndex(t *testing.T) {
	for _, c := range lifecycles {
		t.Run(c.name, func(t *testing.T) {
			doc := testDoc(t)
			freed := make(chan struct{})
			func() {
				idx, ok := c.probe(doc)
				if !ok {
					t.Fatal("cold probe did not build")
				}
				runtime.SetFinalizer(idx, func(any) { close(freed) })
			}()
			elem(t, doc, "a1").SetAttr(dom.Name("n"), "x")
			if _, ok := c.probe(doc); ok {
				t.Fatal("first probe after a mutation rebuilt")
			}
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the stale index is still reachable after a probe found it stale")
		})
	}
}

// A mutation releases the index it makes stale, with no probe after it:
// a page whose listeners look up only ids (dom's id map answers those)
// probes its path index never again, and must not keep the one it built
// at load.
func TestMutationReleasesStaleIndex(t *testing.T) {
	for _, c := range lifecycles {
		t.Run(c.name, func(t *testing.T) {
			doc := testDoc(t)
			freed := make(chan struct{})
			func() {
				idx, ok := c.probe(doc)
				if !ok {
					t.Fatal("cold probe did not build")
				}
				runtime.SetFinalizer(idx, func(any) { close(freed) })
			}()
			if doc.ElementByID("a1") == nil {
				t.Fatal("no a1")
			}
			elem(t, doc, "a1").SetAttr(dom.Name("n"), "x")
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the stale index is still reachable after the mutation")
		})
	}
}
