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
// bumped once for the whole list.
func (n *Node) AdoptChildren(kids []*Node) {
	if len(kids) == 0 {
		return
	}
	if n.children == nil {
		n.children = make([]*Node, 0, len(kids))
	}
	for _, k := range kids {
		if k.parent != nil || k.Type == AttributeNode || k.Type == DocumentNode {
			panic("dom: AdoptChildren: child is attached or cannot be a child")
		}
		k.parent = n
		n.children = append(n.children, k)
	}
	n.bumpVersion()
}

// AdoptAttrs appends one attribute node per spec to element n, in order.
// The caller has already resolved duplicates: no name check is made. The
// attribute nodes of one call share a single allocation.
func (n *Node) AdoptAttrs(specs []AttrSpec) {
	if len(specs) == 0 {
		return
	}
	nodes := make([]Node, len(specs))
	if n.attrs == nil {
		n.attrs = make([]*Node, 0, len(specs))
	}
	for i, s := range specs {
		a := &nodes[i]
		a.Type, a.Name, a.Data, a.parent = AttributeNode, s.Name, s.Value, n
		n.attrs = append(n.attrs, a)
	}
	n.bumpVersion()
}
