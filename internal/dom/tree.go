package dom

import "fmt"

// Mutation primitives. These are the only sanctioned ways to restructure
// a tree; they keep parent links coherent and bump the version counter
// that the document-order labels and the indexes are checked against.
// The XQuery Update Facility's apply phase (internal/xquery/update) and
// the HTML parser are the main callers.

func (n *Node) bumpVersion() {
	if r := n.Root(); r != nil {
		r.version++
	}
}

// orphan clears n's parent link once the parent's list no longer holds
// n. n is a root from here on, at a version none of its earlier times
// as a root had: labels or an index cached at n back then describe a
// tree that has since been part of another one, and must not read as
// fresh.
func (n *Node) orphan() {
	n.parent = nil
	n.version++
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
	n.el.children = append(n.el.children, c)
	n.bumpVersion()
	return nil
}

// PrependChild inserts c as n's first child.
func (n *Node) PrependChild(c *Node) error {
	if err := n.checkChild(c); err != nil {
		return err
	}
	c.Detach()
	c.parent = n
	n.el.children = append([]*Node{c}, n.el.children...)
	n.bumpVersion()
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
	i := ref.childIndex()
	if ref.parent != n || i < 0 {
		return fmt.Errorf("dom: reference node is not a child")
	}
	c.parent = n
	n.el.children = insertAt(n.el.children, i, c)
	n.bumpVersion()
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
	i := ref.childIndex()
	if ref.parent != n || i < 0 {
		return fmt.Errorf("dom: reference node is not a child")
	}
	c.parent = n
	n.el.children = insertAt(n.el.children, i+1, c)
	n.bumpVersion()
	return nil
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
	n.bumpVersion()
	if n.Type == AttributeNode {
		for i, a := range p.el.attrs {
			if a == n {
				p.el.attrs = append(p.el.attrs[:i], p.el.attrs[i+1:]...)
				break
			}
		}
	} else {
		for i, c := range p.el.children {
			if c == n {
				p.el.children = append(p.el.children[:i], p.el.children[i+1:]...)
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
	i := old.childIndex()
	if old.parent != n || i < 0 {
		return fmt.Errorf("dom: replaced node is not a child")
	}
	c.Detach()
	old.orphan()
	c.parent = n
	n.el.children[i] = c
	n.bumpVersion()
	return nil
}

// SetAttr sets (or adds) an attribute value by name and returns the
// attribute node.
func (n *Node) SetAttr(name QName, value string) *Node {
	if a := n.AttrNode(name); a != nil {
		a.Data = value
		n.bumpVersion()
		return a
	}
	a := NewAttr(name, value)
	a.parent = n
	n.el.attrs = append(n.el.attrs, a)
	n.bumpVersion()
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
	n.el.attrs = append(n.el.attrs, a)
	n.bumpVersion()
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
	if i < 0 || i > len(n.el.children) {
		return fmt.Errorf("dom: restore position %d out of range", i)
	}
	c.parent = n
	n.el.children = insertAt(n.el.children, i, c)
	n.bumpVersion()
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
	if i < 0 || i > len(n.el.attrs) {
		return fmt.Errorf("dom: restore position %d out of range", i)
	}
	a.parent = n
	n.el.attrs = insertAt(n.el.attrs, i, a)
	n.bumpVersion()
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
	n.Name = name
	n.bumpVersion()
}

// SetData replaces the character data of a text/comment/PI/attribute
// node.
func (n *Node) SetData(data string) {
	n.Data = data
	n.bumpVersion()
}

// ReplaceElementContent removes all children of n and, if text is
// non-empty, installs a single text child. This is the Update Facility's
// "replace value of node" on elements.
func (n *Node) ReplaceElementContent(text string) {
	e := n.el
	for _, c := range e.children {
		c.orphan()
	}
	e.children = e.children[:0]
	if text != "" {
		t := NewText(text)
		t.parent = n
		e.children = append(e.children, t)
	}
	n.bumpVersion()
}

// RemoveChildren detaches every child of n.
func (n *Node) RemoveChildren() {
	e := n.el
	for _, c := range e.children {
		c.orphan()
	}
	e.children = e.children[:0]
	n.bumpVersion()
}

// NormalizeText merges adjacent text child nodes and drops empty ones,
// recursively. Constructed XQuery content requires this normal form.
func (n *Node) NormalizeText() {
	e := n.el
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
