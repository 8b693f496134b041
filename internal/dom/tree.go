package dom

import "fmt"

// Mutation primitives. These are the only sanctioned ways to restructure
// a tree; they keep parent links coherent, bump the version counter
// that the document-order labels and the indexes are checked against,
// and keep the tree's id map current once it has one (ids.go).
// The XQuery Update Facility's apply phase (internal/xquery/update) and
// the HTML parser are the main callers.

// bumpVersion bumps the version counter of n's tree, releases the
// indexes the mutation makes stale and returns the tree's root, where
// its id map hangs.
func (n *Node) bumpVersion() *Node {
	r := n.Root()
	if v := r.versionWord(); v != nil {
		*v++
	}
	r.releaseIndexes()
	return r
}

// attached finishes attaching c, now in n's child or attribute list:
// it bumps the version of n's tree and enters the ids c brings into the
// tree's id map, walking c's subtree. c is no root any more, so an id
// map it kept as one is dropped.
func (n *Node) attached(c *Node) {
	c.dropIDMap()
	if m := n.bumpVersion().ids(); m != nil {
		if c.Type != AttributeNode {
			m.addTree(c)
		} else if isIDName(c.Name) {
			m.addID(c.Data, n)
		}
	}
}

// leaving starts detaching c, n's child or attribute: it bumps the
// version of n's tree and forgets the ids c takes out of the tree's id
// map, walking c's subtree.
func (n *Node) leaving(c *Node) {
	if m := n.bumpVersion().ids(); m != nil {
		if c.Type != AttributeNode {
			m.removeTree(c)
		} else if isIDName(c.Name) {
			m.removeID(c.Data, n)
		}
	}
}

// orphan clears n's parent link once the parent's list no longer holds
// n. n is a root from here on, at a version none of its earlier times
// as a root had: labels or an index cached at n back then describe a
// tree that has since been part of another one, and must not read as
// fresh.
func (n *Node) orphan() {
	n.parent = nil
	if v := n.versionWord(); v != nil {
		*v++
	}
}

func (n *Node) checkChild(c *Node) error {
	switch {
	case c == nil:
		return fmt.Errorf("dom: nil child")
	case c.Type == AttributeNode:
		return fmt.Errorf("dom: attribute node cannot be a child")
	case c.Type == DocumentNode:
		return fmt.Errorf("dom: document node cannot be a child")
	case c == n || c.IsAncestorOf(n):
		return fmt.Errorf("dom: cycle: node would contain itself")
	case n.Type != ElementNode && n.Type != DocumentNode:
		return fmt.Errorf("dom: %s node cannot have children", n.Type)
	}
	return nil
}

// AppendChild detaches c from its current parent and appends it to n.
func (n *Node) AppendChild(c *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	c.Detach()
	c.parent = n
	e := n.part()
	e.children = append(e.children, c)
	n.attached(c)
	return nil
}

// PrependChild inserts c as n's first child.
func (n *Node) PrependChild(c *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	c.Detach()
	c.parent = n
	e := n.part()
	e.children = append([]*Node{c}, e.children...)
	n.attached(c)
	return nil
}

// InsertBefore inserts c as a sibling immediately before ref, which must
// be a child of n.
func (n *Node) InsertBefore(c, ref *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	if c == ref {
		return fmt.Errorf("dom: cannot insert a node relative to itself")
	}
	c.Detach()
	i := ref.ChildIndex()
	if ref.parent != n || i < 0 {
		return fmt.Errorf("dom: reference node is not a child")
	}
	c.parent = n
	e := n.part()
	e.children = insertAt(e.children, i, c)
	n.attached(c)
	return nil
}

// InsertAfter inserts c as a sibling immediately after ref, which must
// be a child of n.
func (n *Node) InsertAfter(c, ref *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	if c == ref {
		return fmt.Errorf("dom: cannot insert a node relative to itself")
	}
	c.Detach()
	i := ref.ChildIndex()
	if ref.parent != n || i < 0 {
		return fmt.Errorf("dom: reference node is not a child")
	}
	c.parent = n
	e := n.part()
	e.children = insertAt(e.children, i+1, c)
	n.attached(c)
	return nil
}

// attrRoom returns e's attribute list to append to: the element's own
// one-attribute slot while the list has no room at all.
func (e *elemPart) attrRoom() []*Node {
	if cap(e.attrs) == 0 {
		return e.one[:0:1]
	}
	return e.attrs
}

// insertAt returns list with c inserted at position i.
func insertAt(list []*Node, i int, c *Node) []*Node {
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = c
	return list
}

// Detach removes n from its parent (child list or attribute list). It is
// a no-op for detached nodes.
func (n *Node) Detach() {
	p := n.parent
	if p == nil {
		return
	}
	p.leaving(n)
	e := p.part()
	if n.Type == AttributeNode {
		for i, a := range e.attrs {
			if a == n {
				e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
				break
			}
		}
	} else {
		for i, c := range e.children {
			if c == n {
				e.children = append(e.children[:i], e.children[i+1:]...)
				break
			}
		}
	}
	n.orphan()
}

// ReplaceChild replaces old (a child of n) with c.
func (n *Node) ReplaceChild(c, old *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	if c == old {
		return fmt.Errorf("dom: cannot replace a node with itself")
	}
	if old.parent != n || old.Type == AttributeNode {
		return fmt.Errorf("dom: replaced node is not a child")
	}
	c.Detach() // may be a sibling of old, before it
	i := old.ChildIndex()
	n.leaving(old)
	old.orphan()
	c.parent = n
	n.part().children[i] = c
	n.attached(c)
	return nil
}

// SetAttr sets (or adds) an attribute value by name and returns the
// attribute node.
func (n *Node) SetAttr(name QName, value string) *Node {
	if a := n.AttrNode(name); a != nil {
		a.SetData(value)
		return a
	}
	a := NewAttr(name, value)
	a.parent = n
	e := n.part()
	e.attrs = append(e.attrRoom(), a)
	n.attached(a)
	return a
}

// AddAttrNode attaches a detached attribute node to element n. It fails
// if an attribute with the same expanded name already exists.
func (n *Node) AddAttrNode(a *Node) error {
	if a.Type != AttributeNode {
		return fmt.Errorf("dom: %s node is not an attribute", a.Type)
	}
	if n.Type != ElementNode {
		return fmt.Errorf("dom: attributes only attach to elements")
	}
	if n.AttrNode(a.Name) != nil {
		return fmt.Errorf("dom: duplicate attribute %s", a.Name)
	}
	a.Detach()
	a.parent = n
	e := n.part()
	e.attrs = append(e.attrRoom(), a)
	n.attached(a)
	return nil
}

// RestoreChildAt re-attaches a detached node as n's child at position
// i — the rollback path's undo of a removal, which must restore the
// child list (and so serialisation order) exactly. Unlike the insert
// mutators it takes a list position, because by the time an undo log
// unwinds, the sibling that anchored the original operation may itself
// be detached.
func (n *Node) RestoreChildAt(c *Node, i int) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	if c.parent != nil {
		return fmt.Errorf("dom: restored node is still attached")
	}
	e := n.part()
	if i < 0 || i > len(e.children) {
		return fmt.Errorf("dom: restore position %d out of range", i)
	}
	c.parent = n
	e.children = insertAt(e.children, i, c)
	n.attached(c)
	return nil
}

// RestoreAttrAt re-attaches a detached attribute node at position i in
// n's attribute list. See RestoreChildAt; attributes keep their own
// list order under rollback for serialisation-identical documents.
func (n *Node) RestoreAttrAt(a *Node, i int) error {
	if a == nil || a.Type != AttributeNode {
		return fmt.Errorf("dom: restored node is not an attribute")
	}
	if n.Type != ElementNode {
		return fmt.Errorf("dom: attributes only attach to elements")
	}
	if a.parent != nil {
		return fmt.Errorf("dom: restored attribute is still attached")
	}
	if n.AttrNode(a.Name) != nil {
		return fmt.Errorf("dom: duplicate attribute %s", a.Name)
	}
	e := n.part()
	if i < 0 || i > len(e.attrs) {
		return fmt.Errorf("dom: restore position %d out of range", i)
	}
	a.parent = n
	e.attrs = insertAt(e.attrRoom(), i, a)
	n.attached(a)
	return nil
}

// RemoveAttr removes the named attribute if present.
func (n *Node) RemoveAttr(name QName) {
	if a := n.AttrNode(name); a != nil {
		a.Detach()
	}
}

// Rename changes the node's name (element, attribute or PI target).
func (n *Node) Rename(name QName) {
	if m := n.bumpVersion().ids(); m != nil && n.Type == AttributeNode && n.parent != nil {
		switch was, is := isIDName(n.Name), isIDName(name); {
		case was && !is:
			m.removeID(n.Data, n.parent)
		case is && !was:
			m.addID(n.Data, n.parent)
		}
	}
	n.Name = name
}

// SetData replaces the character data of a text/comment/PI/attribute
// node.
func (n *Node) SetData(data string) {
	if m := n.bumpVersion().ids(); m != nil && n.Type == AttributeNode && n.parent != nil && isIDName(n.Name) {
		m.removeID(n.Data, n.parent)
		m.addID(data, n.parent)
	}
	n.Data = data
}

// ReplaceElementContent removes all children of n and, if text is
// non-empty, installs a single text child. This is the Update Facility's
// "replace value of node" on elements.
func (n *Node) ReplaceElementContent(text string) {
	n.RemoveChildren()
	if text != "" {
		t := NewText(text)
		t.parent = n
		e := n.part()
		e.children = append(e.children, t)
	}
}

// RemoveChildren detaches every child of n.
func (n *Node) RemoveChildren() {
	e := n.part()
	m := n.bumpVersion().ids()
	for _, c := range e.children {
		if m != nil {
			m.removeTree(c)
		}
		c.orphan()
	}
	e.children = e.children[:0]
}

// NormalizeText merges adjacent text child nodes and drops empty ones,
// recursively. Constructed XQuery content requires this normal form.
func (n *Node) NormalizeText() {
	e := n.part()
	out := e.children[:0]
	for _, c := range e.children {
		if c.Type == TextNode {
			if c.Data == "" {
				c.orphan()
				continue
			}
			if len(out) > 0 && out[len(out)-1].Type == TextNode {
				out[len(out)-1].Data += c.Data
				c.orphan()
				continue
			}
		}
		out = append(out, c)
	}
	e.children = out
	for _, c := range out {
		if c.Type == ElementNode {
			c.NormalizeText()
		}
	}
	n.bumpVersion()
}
