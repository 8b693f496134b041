package dom

// Version returns the mutation counter of the tree containing n. Every
// mutator in tree.go bumps the counter on the tree's root, so a cached
// derivation of the tree (the document-order labels of order.go, the
// per-document indexes of lifecycle.go) is valid exactly while the
// version it was built at still matches.
func (n *Node) Version() uint64 { return n.Root().rootVersion() }

// versionWord returns the mutation counter of the tree rooted at r: in
// its elemPart for an element or a document, in its side struct for a
// leaf, and nil for a leaf without one — nothing can be cached on such
// a root, so nothing needs to see it change.
func (r *Node) versionWord() *uint64 {
	if p := r.part(); p != nil {
		return &p.version
	}
	if s := r.side.Load(); s != nil {
		return &s.version
	}
	return nil
}

// rootVersion returns the mutation counter of the tree rooted at r.
func (r *Node) rootVersion() uint64 {
	if v := r.versionWord(); v != nil {
		return *v
	}
	return 0
}

// RestoreVersion rewinds the version counter of the tree containing n
// to v — the final step of rolling back a failed update, after the
// undo log has restored the tree's structure. Rewinding alone would
// re-arm an ABA hazard: labels or indexes computed at a version the
// rollback skips over would read as fresh once the counter climbs back
// there. So RestoreVersion marks the tree's labels as never written
// (the next reader relabels the restored tree) and leaves a never-fresh
// entry in every index slot that held one (the next probes rebuild as
// after any mutation). It drops the tree's id map too: the undo log
// restored it through the mutators, but a rollback is where a map is
// rebuilt rather than trusted.
func (n *Node) RestoreVersion(v uint64) {
	root := n.Root()
	if w := root.versionWord(); w != nil {
		*w = v
	}
	root.dropIDMap()
	if s := root.side.Load(); s != nil {
		s.labeled.Store(0)
		for i := range s.indexes {
			if s.indexes[i].Load() != nil {
				s.indexes[i].Store(&indexEntry{version: neverFresh})
			}
		}
	}
}
