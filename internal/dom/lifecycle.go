package dom

import (
	"sync/atomic"

	"repro/internal/faultpoint"
)

// The per-document index lifecycle (DESIGN.md §5v). An index derived
// from a tree — the path index of internal/dom/index, the full-text
// index of internal/fulltext/index — lives in a slot on the tree's
// root, so it dies with its document; it holds for the tree version it
// was built at, so mutators neither update nor rebuild it — a mutation
// only releases the index it makes stale (releaseIndexes); and this
// file alone decides when a stale one is rebuilt and what a rollback
// does to it (RestoreVersion). The index packages build and query, no
// more.

// The root's index slots, one per kind of index.
const (
	PathIndexSlot = iota
	FTIndexSlot
	indexSlots
)

// rebuildProbes is how many probes a stale index waits for at one
// unchanged tree version before it is rebuilt. A build costs a few tree
// walks, so a page that keeps mutating (an event listener that queries
// the page it is about to mutate again) must not rebuild per version —
// its probes scan — while a read phase that settles on a version
// crosses the threshold almost at once and gets its index back.
const rebuildProbes = 4

// neverFresh is the build version of an entry that holds no index, only
// probe counters: no tree's counter reaches it, so the entry is stale
// for good, whichever way the counter moves.
const neverFresh = ^uint64(0)

// indexEntry is what a slot holds: an index and the tree version it was
// built at, or, at version neverFresh, only the probe counters of an
// index that went stale.
type indexEntry struct {
	version uint64
	val     any

	// How many probes arrived while the slot was stale, and at which
	// tree version they were counted. Racy by design: a lost increment
	// only delays a rebuild by one probe.
	probeV atomic.Uint64
	probeN atomic.Int64
}

// Index is the lifecycle of one kind of per-document index: the root
// slot it is kept in, the fault point that turns its builds into scans,
// and its builder, which indexes the tree rooted at its argument as it
// is at the tree's current version.
type Index[T any] struct {
	Slot  int
	Fault string
	Build func(root *Node) *T
}

func (ix *Index[T]) load(root *Node) *indexEntry {
	if s := root.side.Load(); s != nil {
		return s.indexes[ix.Slot].Load()
	}
	return nil
}

// Fresh returns the index of the tree containing n if the slot holds
// one current at the tree's version; it never builds.
func (ix *Index[T]) Fresh(n *Node) *T {
	root := n.Root()
	if e := ix.load(root); e != nil && e.version == root.rootVersion() {
		return e.val.(*T)
	}
	return nil
}

// For returns a current index of the tree containing n, building one if
// the slot holds none. The index is valid until the tree's next
// mutation.
func (ix *Index[T]) For(n *Node) *T {
	if d := ix.Fresh(n); d != nil {
		return d
	}
	root := n.Root()
	d := ix.Build(root)
	ix.Publish(root, d)
	return d
}

// Probe returns a current index of the tree containing n if having one
// is worth it, or nil when the caller should scan; built reports whether
// this call built it. A tree that never had an index builds at once; a
// tree whose index went stale rebuilds on the rebuildProbes-th probe at
// one version. A stale index is not kept in the slot, only the
// counters: the mutation that made it stale released it
// (releaseIndexes), or the first probe that finds it stale drops it, so
// a page that keeps mutating does not retain the index it built at
// load; whoever still holds the stale index has it, and it refuses to
// answer. An armed Fault makes the probe scan instead of building.
func (ix *Index[T]) Probe(n *Node) (d *T, built bool) {
	root := n.Root()
	e := ix.load(root)
	if e != nil {
		v := root.rootVersion()
		if e.version == v {
			return e.val.(*T), false
		}
		if e.version != neverFresh {
			e = &indexEntry{version: neverFresh}
			root.ensureSide().indexes[ix.Slot].Store(e)
		}
		if e.probeV.Load() != v {
			e.probeV.Store(v)
			e.probeN.Store(0)
		}
		if e.probeN.Add(1) < rebuildProbes {
			return nil, false
		}
	}
	if faultpoint.Hit(ix.Fault) != nil {
		return nil, false // degrade: the caller scans
	}
	return ix.For(root), true
}

// Publish stores d, an index of the tree containing n as the tree is
// now, in the slot: how an index loaded rather than built is kept.
func (ix *Index[T]) Publish(n *Node, d *T) {
	root := n.Root()
	root.ensureSide().indexes[ix.Slot].Store(&indexEntry{version: root.rootVersion(), val: d})
}

// releaseIndexes drops every index kept at root r, which a mutation of
// r's tree has just made stale, leaving a never-fresh entry where one
// was: the probe counters go on, and the index is garbage even if no
// probe comes again — a page whose listeners look up only ids (the id
// map, ids.go, answers those) would otherwise keep the path index it
// built at load for as long as it lives.
func (r *Node) releaseIndexes() {
	s := r.side.Load()
	if s == nil {
		return
	}
	for i := range s.indexes {
		if e := s.indexes[i].Load(); e != nil && e.version != neverFresh {
			s.indexes[i].Store(&indexEntry{version: neverFresh})
		}
	}
}
