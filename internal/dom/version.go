package dom

// Version returns the mutation counter of the tree containing n. Every
// mutator in tree.go bumps the counter on the tree's root, so a cached
// derivation of the tree (the document-order labels of order.go, the
// per-document indexes of lifecycle.go) is valid exactly while the
// version it was built at still matches.
func (n *Node) Version() uint64 { return n.Root().version }

// RestoreVersion rewinds the version counter of the tree containing n
// to v — the final step of rolling back a failed update, after the
// undo log has restored the tree's structure. Rewinding alone would
// re-arm an ABA hazard: labels or indexes computed at a version the
// rollback skips over would read as fresh once the counter climbs back
// there. So RestoreVersion marks the tree's labels as never written
// (the next reader relabels the restored tree) and leaves a never-fresh
// entry in every index slot that held one (the next probes rebuild as
// after any mutation).
func (n *Node) RestoreVersion(v uint64) {
	root := n.Root()
	root.version = v
	if s := root.side.Load(); s != nil {
		s.labeled.Store(0)
		for i := range s.indexes {
			if s.indexes[i].Load() != nil {
				s.indexes[i].Store(&indexEntry{version: neverFresh})
			}
		}
	}
}
