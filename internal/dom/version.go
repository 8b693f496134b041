package dom

import "sync/atomic"

// Version returns the mutation counter of the tree containing n. Every
// mutator in tree.go bumps the counter on the tree's root, so a cached
// derivation of the tree (the document-order labels of order.go, the
// per-document indexes in internal/dom/index) is valid exactly while
// the version it was built at still matches.
func (n *Node) Version() uint64 { return n.Root().version }

// versionRestoreHooks run whenever RestoreVersion rewinds a tree's
// counter. Registered at init time only (internal/dom/index installs
// its invalidator there), so the slice is never written concurrently.
var versionRestoreHooks []func(root *Node)

// OnVersionRestore registers f to run on the root of every tree whose
// version counter is rewound by RestoreVersion. It must only be called
// from package init functions: registration is not synchronised.
func OnVersionRestore(f func(root *Node)) {
	versionRestoreHooks = append(versionRestoreHooks, f)
}

// RestoreVersion rewinds the version counter of the tree containing n
// to v — the final step of rolling back a failed update, after the
// undo log has restored the tree's structure. Rewinding alone would
// re-arm an ABA hazard: labels or indexes computed at a version the
// rollback skips over would read as fresh once the counter climbs back
// there. So RestoreVersion marks the tree's labels as never written
// (the next reader relabels the restored tree) and fires the
// registered hooks, which drop any cached index built during the
// rolled-back window.
func (n *Node) RestoreVersion(v uint64) {
	root := n.Root()
	root.version = v
	if s := root.side.Load(); s != nil {
		s.labeled.Store(0)
	}
	for _, f := range versionRestoreHooks {
		f(root)
	}
}

// LoadIndexCache returns the opaque per-document index slot stored on
// this node, or nil. The slot belongs to internal/dom/index: only that
// package may interpret the value, and only on root nodes. It hangs off
// the node (its side struct), not a global registry, so an index dies
// with its document and never outlives it.
func (n *Node) LoadIndexCache() any {
	if s := n.side.Load(); s != nil {
		return loadSlot(&s.indexCache)
	}
	return nil
}

// StoreIndexCache publishes a freshly built index for the tree rooted
// at n. See LoadIndexCache for the ownership contract.
func (n *Node) StoreIndexCache(v any) { n.ensureSide().indexCache.Store(&v) }

// LoadFTIndexCache returns the opaque per-document full-text index
// slot stored on this node, or nil. The slot belongs to
// internal/fulltext/index under the same ownership contract as
// LoadIndexCache: only that package interprets the value, and only on
// root nodes.
func (n *Node) LoadFTIndexCache() any {
	if s := n.side.Load(); s != nil {
		return loadSlot(&s.ftCache)
	}
	return nil
}

// StoreFTIndexCache publishes a freshly built full-text index for the
// tree rooted at n. See LoadFTIndexCache for the ownership contract.
func (n *Node) StoreFTIndexCache(v any) { n.ensureSide().ftCache.Store(&v) }

func loadSlot(slot *atomic.Pointer[any]) any {
	if v := slot.Load(); v != nil {
		return *v
	}
	return nil
}
