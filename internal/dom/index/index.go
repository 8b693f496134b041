// Package index maintains a lazily built, version-stamped element-name
// index over dom trees (expanded QName → elements in document order) —
// the access-path layer the path planner (internal/xquery/plan) routes
// //x-style steps to. Ids are not its business: a tree's id map lives
// in package dom, which keeps it current through every mutation
// (dom.Node.AppendByID, DESIGN.md §5aa), so descendant::x[@id="..."]
// steps and fn:id read it even on a page that just changed.
//
// The index numbers nothing itself: a subtree is a pre/end interval of
// the labels package dom keeps on every node (dom.Node.Label, DESIGN.md
// §5t), so slicing a name list to one subtree is two binary searches,
// and a build allocates nothing per node of the tree.
//
// Where the index is kept, when it is current, when a stale one is
// rebuilt and what a rollback does to it is package dom's lifecycle
// (dom.Index, DESIGN.md §5v), shared with the full-text index: the
// index lives in a slot on the tree's root, so it is garbage-collected
// with its document, and holds for the version it was built at, so the
// Update Facility's apply phase needs zero index bookkeeping. A Doc
// held across a mutation refuses to answer (fresh).
//
// Concurrency: building is idempotent — two goroutines racing on a
// cold tree both build and the slot keeps the last store; either value
// is correct for that version. Reads of a published *Doc are safe
// because a Doc is immutable after build. (Reading a dom tree
// concurrently with mutation was never safe; the index does not change
// that contract.)
package index

import (
	"sort"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
)

// lifecycle keeps the path index in its root slot: dom decides when it
// is current, rebuilt and dropped (DESIGN.md §5v).
var lifecycle = dom.Index[Doc]{Slot: dom.PathIndexSlot, Fault: faultpoint.PointIndexBuild, Build: build}

// nameKey is an expanded element name (prefixes are irrelevant).
type nameKey struct {
	space, local string
}

// Doc is one tree's index, immutable after build. All node slices are
// in document order.
type Doc struct {
	root    *dom.Node
	version uint64 // root.Version() at build time

	names map[nameKey][]*dom.Node // element-name index
}

// Package-wide counters (process lifetime): how many indexes were
// built, and how many probes were answered from an index. Builds is
// the test hook for "rebuild is lazy"; Hits surfaces in the profiler
// and serve.Metrics.
var (
	builds atomic.Int64
	hits   atomic.Int64
)

// Stats is a snapshot of the package counters.
type Stats struct {
	Builds int64 // indexes constructed since process start
	Hits   int64 // probes answered from an index
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{Builds: builds.Load(), Hits: hits.Load()}
}

// For returns a current index of the tree containing n, building one
// if there is none. The returned Doc is valid until the tree's next
// mutation.
func For(n *dom.Node) *Doc { return lifecycle.For(n) }

// Probe returns the index a planned path step may read, or nil
// when the caller should scan; built reports whether this call built
// it. When a stale index is rebuilt and when a build degrades to a scan
// is dom.Index.Probe's policy; For bypasses it.
func Probe(n *dom.Node) (d *Doc, built bool) { return lifecycle.Probe(n) }

// Fresh returns the index of the tree containing n only if it is
// already built and current; it never builds.
func Fresh(n *dom.Node) *Doc { return lifecycle.Fresh(n) }

// build walks the tree once, filling the name map in document order.
func build(root *dom.Node) *Doc {
	builds.Add(1)
	d := &Doc{
		root:    root,
		version: root.Version(),
		names:   map[nameKey][]*dom.Node{},
	}
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			k := nameKey{space: n.Name.Space, local: n.Name.Local}
			d.names[k] = append(d.names[k], n)
		}
		return true
	})
	return d
}

// fresh reports whether the index still matches its tree. Every
// accessor checks it before touching the map: a Doc held across a
// mutation answers ok=false and the caller falls back to scanning.
func (d *Doc) fresh() bool { return d.version == d.root.Version() }

// DescendantsByName returns the elements with the given expanded name
// inside n's subtree, in document order, sliced out of the name list
// by binary search on the elements' labels (no allocation). orSelf
// includes n itself when it carries the name. ok is false when the
// index is stale or n is not in this tree; the caller must then scan.
func (d *Doc) DescendantsByName(n *dom.Node, space, local string, orSelf bool) (nodes []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	lo, hi, ok := d.subtree(n, orSelf)
	if !ok {
		return nil, false
	}
	list := d.names[nameKey{space: space, local: local}]
	i := sort.Search(len(list), func(i int) bool { p, _, _ := list[i].Label(); return p >= lo })
	j := sort.Search(len(list), func(j int) bool { p, _, _ := list[j].Label(); return p > hi })
	hits.Add(1)
	return list[i:j], true
}

// subtree returns the pre interval [lo, hi] of n's subtree, without n
// itself unless orSelf. ok is false when n is not in this index's tree.
func (d *Doc) subtree(n *dom.Node, orSelf bool) (lo, hi uint32, ok bool) {
	p, end, root := n.Label()
	if root != d.root {
		return 0, 0, false
	}
	if !orSelf {
		p++
	}
	return p, end, true
}
