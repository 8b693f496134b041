package dom

// The id map (DESIGN.md §5aa): id attribute value → element, for the
// tree rooted where it hangs. It is built on the first id lookup of a
// tree (ElementByID, AppendByID) and from then on kept current by the
// mutators of tree.go and build.go, which already walk to the root to
// bump its version: a mutation that moves an id — an id attribute set,
// removed, renamed or rewritten, a subtree that holds ids attached or
// detached — updates the map in place, walking only the moved subtree;
// every other mutation pays one nil check on the way. So a page that
// changes on every event answers getElementById, fn:id and a planned
// [@id = "k"] step from the map instead of a walk. RestoreVersion drops
// the map (the next lookup rebuilds it), and Clone never copies it.
//
// The map holds one element per id; an id that repeats chains its
// other holders through a side map, so a page of unique ids — the
// common case — retains one map entry per id and nothing else, and a
// duplicate costs no allocation of its own (a listener that inserts a
// new table before deleting the old one repeats every id of the table
// for a moment). A unique answer needs no document order: whether it
// lies in the focus node's subtree is a walk up its ancestors, and the
// page is not relabeled. Only the holders of a repeated id are sorted,
// on the labels.
//
// Building follows the index slots' rule: readers of a shared immutable
// tree may race to build, and the compare-and-swap keeps one map they
// all read. Maintenance writes the map in place under the exclusive
// access every mutation needs.

// isIDName reports whether an attribute of this name is an element's
// id: "id" in no namespace, whatever its prefix.
func isIDName(q QName) bool { return q.Space == "" && q.Local == "id" }

// idOf returns the value of element e's id attribute, "" when it has
// none.
func idOf(e *Node) string {
	for _, a := range e.Attrs() {
		if isIDName(a.Name) {
			return a.Data
		}
	}
	return ""
}

// idMap is one tree's id map. An element with an empty id is not in it.
type idMap struct {
	holder map[string]*Node // one element per id
	// nextHolder chains the other holders of an id that repeats:
	// holder[id], nextHolder[holder[id]], ... in no particular order,
	// ending at the holder with no entry. nil until an id repeats.
	nextHolder map[*Node]*Node
}

// ids returns the id map of the tree rooted at r, or nil when none has
// been built: what a mutator maintains.
func (r *Node) ids() *idMap {
	if s := r.side.Load(); s != nil {
		return s.idmap.Load()
	}
	return nil
}

// buildIDMap returns the id map of the tree rooted at r, building it if
// there is none; nil for a root that cannot hold elements.
func (r *Node) buildIDMap() *idMap {
	if r.part() == nil {
		return nil
	}
	s := r.ensureSide()
	if m := s.idmap.Load(); m != nil {
		return m
	}
	m := &idMap{holder: map[string]*Node{}}
	m.addTree(r)
	if s.idmap.CompareAndSwap(nil, m) {
		return m
	}
	return s.idmap.Load()
}

// dropIDMap forgets the id map kept on n: n's tree was rolled back
// (RestoreVersion), or n has stopped being a root, and a map it kept
// would be stale the next time it is one.
func (n *Node) dropIDMap() {
	if s := n.side.Load(); s != nil && s.idmap.Load() != nil {
		s.idmap.Store(nil)
	}
}

// addID records e as a holder of id.
func (m *idMap) addID(id string, e *Node) {
	if id == "" {
		return
	}
	first, ok := m.holder[id]
	if !ok {
		m.holder[id] = e
		return
	}
	if m.nextHolder == nil {
		m.nextHolder = map[*Node]*Node{}
	}
	if after, ok := m.nextHolder[first]; ok {
		m.nextHolder[e] = after
	}
	m.nextHolder[first] = e
}

// removeID forgets e as a holder of id.
func (m *idMap) removeID(id string, e *Node) {
	if id == "" {
		return
	}
	prev, ok := m.holder[id]
	if !ok {
		return
	}
	if prev == e {
		if after, ok := m.nextHolder[e]; ok {
			m.holder[id] = after
			delete(m.nextHolder, e)
		} else {
			delete(m.holder, id)
		}
		return
	}
	for {
		cur, ok := m.nextHolder[prev]
		if !ok {
			return
		}
		if cur == e {
			if after, ok := m.nextHolder[e]; ok {
				m.nextHolder[prev] = after
				delete(m.nextHolder, e)
			} else {
				delete(m.nextHolder, prev)
			}
			return
		}
		prev = cur
	}
}

// addTree records the ids of n's subtree, n included.
func (m *idMap) addTree(n *Node) {
	if n.Type == ElementNode {
		m.addID(idOf(n), n)
	}
	for _, c := range n.Children() {
		if c.Type == ElementNode {
			m.addTree(c)
		}
	}
}

// removeTree forgets the ids of n's subtree, n included.
func (m *idMap) removeTree(n *Node) {
	if n.Type == ElementNode {
		m.removeID(idOf(n), n)
	}
	for _, c := range n.Children() {
		if c.Type == ElementNode {
			m.removeTree(c)
		}
	}
}

// lookup appends the holders of id inside n's subtree (n itself too if
// orSelf) to dst, in document order. n is in the map's tree.
func (m *idMap) lookup(dst []*Node, n *Node, id string, orSelf bool) []*Node {
	e, ok := m.holder[id]
	if !ok {
		return dst
	}
	start := len(dst)
	if inSubtree(n, e, orSelf) {
		dst = append(dst, e)
	}
	d, repeats := m.nextHolder[e]
	if !repeats {
		return dst
	}
	for ; repeats; d, repeats = m.nextHolder[d] {
		if inSubtree(n, d, orSelf) {
			dst = append(dst, d)
		}
	}
	return dst[:start+len(SortDedup(dst[start:]))]
}

// inSubtree reports whether e, a node of n's tree, is in n's subtree:
// n's descendant, or n itself if orSelf. It walks up from e and reads no
// label, so a tree that was just mutated is not relabeled for it.
func inSubtree(n, e *Node, orSelf bool) bool {
	if e == n {
		return orSelf
	}
	return n.parent == nil || n.IsAncestorOf(e)
}

// AppendByID appends to dst the elements of n's subtree — n itself too
// if orSelf — whose id attribute is id, in document order, and returns
// the extended slice. The first lookup of a tree builds its id map;
// from then on the tree's mutators keep it current. An empty id matches
// nothing.
func (n *Node) AppendByID(dst []*Node, id string, orSelf bool) []*Node {
	if id == "" {
		return dst
	}
	m := n.Root().buildIDMap()
	if m == nil {
		return dst
	}
	return m.lookup(dst, n, id, orSelf)
}

// HasIDMap reports whether the tree containing n has its id map built:
// a caller that must not make a tree's memory grow looks ids up only
// then.
func (n *Node) HasIDMap() bool { return n.Root().ids() != nil }

// ElementByID returns the first element of n's subtree, n included,
// whose id attribute is id, or nil — as a DOM getElementById does, nil
// for the empty id too. This backs getElementById-style lookups.
func (n *Node) ElementByID(id string) *Node {
	var buf [1]*Node
	if got := n.AppendByID(buf[:0], id, true); len(got) > 0 {
		return got[0]
	}
	return nil
}
