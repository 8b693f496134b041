package dom

// Bulk construction. The mutators in tree.go guard a tree other code can
// already see: each one checks for cycles and bumps the root's version,
// which walks to the root twice per call. Whoever assembles a tree
// bottom-up that nobody else holds a pointer to — a parser, an XQuery
// element constructor installing its attributes — needs neither, so it
// installs whole child and attribute lists here in one step: the direct
// construction Clone uses, for callers outside the package.

// AttrSpec is one attribute of an element under construction.
type AttrSpec struct {
	Name  QName
	Value string
}

// AdoptChildren appends kids to n's child list and makes n their parent.
// The kids must be parentless nodes of the tree being built (no cycle
// check is made); handing it an attached node, an attribute or a
// document is a bug in the caller and panics. The version of n's tree is
// bumped once for the whole list, and the kids' ids enter the tree's id
// map if it has one.
func (n *Node) AdoptChildren(kids []*Node) {
	if len(kids) == 0 {
		return
	}
	e := n.part()
	if e.children == nil {
		e.children = make([]*Node, 0, len(kids))
	}
	for _, k := range kids {
		if k.parent != nil || k.Type == AttributeNode || k.Type == DocumentNode {
			panic("dom: AdoptChildren: child is attached or cannot be a child")
		}
		k.parent = n
		e.children = append(e.children, k)
	}
	m := n.bumpVersion().ids()
	for _, k := range kids {
		k.dropIDMap()
		if m != nil {
			m.addTree(k)
		}
	}
}

// AdoptAttrs appends one attribute node per spec to element n, in order.
// The caller has already resolved duplicates: no name check is made. The
// attribute nodes of one call share a single allocation.
func (n *Node) AdoptAttrs(specs []AttrSpec) {
	if len(specs) == 0 {
		return
	}
	slab := n.attrSlab(len(specs))
	for i, s := range specs {
		slab[i].Name, slab[i].Data = s.Name, s.Value
	}
	if m := n.bumpVersion().ids(); m != nil {
		for _, s := range specs {
			if isIDName(s.Name) {
				m.addID(s.Value, n)
			}
		}
	}
}

// attrSlab appends k attribute nodes to element n, carved from one
// allocation, and returns them for the caller to name and fill.
func (n *Node) attrSlab(k int) []Node {
	slab := make([]Node, k)
	e := n.part()
	if e.attrs == nil {
		e.attrs = make([]*Node, 0, k)
	}
	for i := range slab {
		slab[i].Type, slab[i].parent = AttributeNode, n
		e.attrs = append(e.attrs, &slab[i])
	}
	return slab
}
