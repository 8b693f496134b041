// Package dom implements a mutable XML/HTML document object model with
// DOM Level 3 style event dispatch. It is the tree the browser renders
// and the store the XQuery engine's data model wraps ("implementing the
// XDM on top of the DOM", paper §5.2).
//
// The package is self-contained: it knows nothing about XQuery. Higher
// layers (internal/xdm, internal/browser, internal/core) build on it.
package dom

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// NodeType enumerates the node kinds of the XDM/DOM intersection.
type NodeType int

// Node kinds. Namespace nodes are modelled as regular attributes in the
// xmlns namespace; entity and CDATA nodes are resolved by the parser.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	ProcessingInstructionNode
)

// String returns the conventional name of the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcessingInstructionNode:
		return "processing-instruction"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// QName is an expanded XML name. Two QNames match when their Space and
// Local parts are equal; Prefix is retained only for serialization.
type QName struct {
	Space  string // namespace URI, "" for no namespace
	Prefix string // lexical prefix, "" for default/none
	Local  string
}

// Name builds a QName in no namespace.
func Name(local string) QName { return QName{Local: local} }

// NameNS builds a QName in the given namespace URI.
func NameNS(space, local string) QName { return QName{Space: space, Local: local} }

// String renders the lexical form (prefix:local or local).
func (q QName) String() string {
	if q.Prefix != "" {
		return q.Prefix + ":" + q.Local
	}
	return q.Local
}

// Matches reports whether the expanded names are equal (prefix ignored).
func (q QName) Matches(o QName) bool { return q.Space == o.Space && q.Local == o.Local }

// IsZero reports whether the QName is the zero value.
func (q QName) IsZero() bool { return q.Space == "" && q.Prefix == "" && q.Local == "" }

// Node is a node in a document tree. All kinds share this struct; fields
// that do not apply to a kind are zero. Nodes must only be mutated
// through the methods of this package so that parent/sibling links and
// the document-order labels stay consistent.
//
// The struct holds what every node of a tree needs and nothing else: a
// text, comment, PI or attribute node is exactly this (112 bytes, the
// 112-byte allocator class). The child and attribute lists live in an
// elemPart that elements and documents allocate together with the node,
// and what only a root or a listened-to node has lives in a nodeSide
// (DESIGN.md §5q). So elements and documents come from NewElement,
// NewDocument and Clone only — a Node literal is a leaf — and the
// mutators that take children or attributes are for those two kinds.
type Node struct {
	Type NodeType
	Name QName  // element, attribute, PI (Local = target) names
	Data string // text/comment content, attribute value, PI data

	parent *Node

	// el points at the lists of an element or a document — into the same
	// allocation as the node (see elemNode) — and is nil on every other
	// kind.
	el *elemPart

	// side is nil on ordinary nodes. A document is constructed with one;
	// any other node gets one (ensureSide) when it is given a base URI or
	// a listener, or when it is the root of a tree being indexed or
	// labeled.
	side atomic.Pointer[nodeSide]

	// label is the node's document-order pre/end pair (order.go), pre in
	// the high half; current while its root's side struct says so.
	label uint64
	// version is the root node's mutation counter, bumped on every
	// mutation of its tree. It is a plain word: whoever mutates a tree
	// has it to itself — the child and attribute lists never allowed
	// anything else — and the goroutines that share an immutable tree
	// only read it. It stays in the node, not in the side struct: a
	// detached constructed root is bumped on every AdoptChildren and
	// must not allocate for it. A node that leaves its tree is bumped
	// too (orphan).
	version uint64
}

// elemPart is the state only a node with content has: the lists of an
// element or a document.
type elemPart struct {
	children []*Node
	attrs    []*Node // attribute nodes; their parent is this element
}

// nodeSide is the state only a root or a listened-to node has. It is
// reached through Node.side and published race-free: a document's is
// part of the document's own allocation and installed before the node
// is returned, any other node's is installed by compare-and-swap, so
// concurrent readers of a shared immutable tree (which may build and
// store its indexes, and label it) agree on one. The fields other than
// the two cache slots and the labeling pair are written under the
// exclusive access every mutation needs.
type nodeSide struct {
	// baseURI is set on document nodes (fn:doc identity, same-origin
	// checks) and inherited by descendants; see Base.
	baseURI string

	// Event listeners in registration order: the first inline, so that
	// a node with one listener — the common case — allocates the side
	// struct and nothing else. first.seq == 0 means there are none.
	first listener
	more  []listener
	seq   uint64 // the last registration number handed out

	// indexCache holds the version-stamped index of the tree rooted at
	// this node (see internal/dom/index); meaningful on roots only. One
	// pointer word, not an interface's two.
	indexCache atomic.Pointer[any]

	// ftCache holds the version-stamped full-text index of the tree
	// rooted at this node (see internal/fulltext/index); meaningful on
	// roots only. A separate slot from indexCache so the two indexes
	// build and invalidate independently.
	ftCache atomic.Pointer[any]

	// labeled is 1 + the version the labels of the tree rooted here were
	// written at (0: not current), stored after them under labelMu
	// (order.go). Meaningful on roots only.
	labeled atomic.Uint64
	labelMu sync.Mutex
}

// elemNode is how an element is allocated: the node and its lists in
// one object, 160 bytes (the 160-byte class). The node's el points at
// part, and that interior pointer keeps the whole object alive.
type elemNode struct {
	node Node
	part elemPart
}

// docNode is how a document is allocated: as an element, plus the side
// struct every document needs for its base URI, its indexes and its
// labeling.
type docNode struct {
	node Node
	part elemPart
	side nodeSide
}

// ensureSide returns n's side struct, installing an empty one if n has
// none. Racing callers all get the one that won.
func (n *Node) ensureSide() *nodeSide {
	if s := n.side.Load(); s != nil {
		return s
	}
	if s := new(nodeSide); n.side.CompareAndSwap(nil, s) {
		return s
	}
	return n.side.Load()
}

// NewDocument creates an empty document node.
func NewDocument() *Node {
	d := new(docNode)
	d.node.Type, d.node.el = DocumentNode, &d.part
	d.node.side.Store(&d.side)
	return &d.node
}

// NewDocumentOf creates a document node with the given base URI and
// adopts the (detached) children into it — the constructor transport
// layers use to rebuild a document identity around a deserialized
// root element.
func NewDocumentOf(baseURI string, children ...*Node) *Node {
	d := NewDocument()
	d.SetBaseURI(baseURI)
	for _, c := range children {
		_ = d.AppendChild(c)
	}
	return d
}

// NewElement creates a detached element node.
func NewElement(name QName) *Node {
	e := new(elemNode)
	e.node.Type, e.node.Name, e.node.el = ElementNode, name, &e.part
	return &e.node
}

// NewText creates a detached text node.
func NewText(data string) *Node { return &Node{Type: TextNode, Data: data} }

// NewComment creates a detached comment node.
func NewComment(data string) *Node { return &Node{Type: CommentNode, Data: data} }

// NewAttr creates a detached attribute node.
func NewAttr(name QName, value string) *Node {
	return &Node{Type: AttributeNode, Name: name, Data: value}
}

// NewPI creates a detached processing-instruction node.
func NewPI(target, data string) *Node {
	return &Node{Type: ProcessingInstructionNode, Name: Name(target), Data: data}
}

// Parent returns the parent node (the owning element for attributes),
// or nil for detached nodes and documents.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child list. Callers must not mutate the slice.
func (n *Node) Children() []*Node {
	if n.el == nil {
		return nil
	}
	return n.el.children
}

// Attrs returns the attribute nodes of an element in insertion order.
// Callers must not mutate the slice.
func (n *Node) Attrs() []*Node {
	if n.el == nil {
		return nil
	}
	return n.el.attrs
}

// Root walks to the topmost ancestor (the document, for attached nodes).
func (n *Node) Root() *Node {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Document returns the owning document node, or nil if detached.
func (n *Node) Document() *Node {
	r := n.Root()
	if r.Type == DocumentNode {
		return r
	}
	return nil
}

// DocumentElement returns the first element child of a document.
func (n *Node) DocumentElement() *Node {
	for _, c := range n.Children() {
		if c.Type == ElementNode {
			return c
		}
	}
	return nil
}

// BaseURI returns the base URI set on this node itself ("" when none
// is): a document's identity for fn:doc and same-origin checks. Base is
// the inherited lookup.
func (n *Node) BaseURI() string {
	if s := n.side.Load(); s != nil {
		return s.baseURI
	}
	return ""
}

// SetBaseURI sets the base URI of this node, which its descendants
// inherit (see Base).
func (n *Node) SetBaseURI(uri string) {
	if uri == "" && n.side.Load() == nil {
		return
	}
	n.ensureSide().baseURI = uri
}

// Base returns the effective base URI: the nearest ancestor-or-self
// BaseURI that is set.
func (n *Node) Base() string {
	for a := n; a != nil; a = a.parent {
		if b := a.BaseURI(); b != "" {
			return b
		}
	}
	return ""
}

// StringValue returns the XDM string value: concatenated descendant text
// for documents and elements, Data for the others.
func (n *Node) StringValue() string {
	switch n.Type {
	case DocumentNode, ElementNode:
		var b strings.Builder
		n.appendText(&b)
		return b.String()
	default:
		return n.Data
	}
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.Children() {
		switch c.Type {
		case TextNode:
			b.WriteString(c.Data)
		case ElementNode:
			c.appendText(b)
		}
	}
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name QName) (string, bool) {
	for _, a := range n.Attrs() {
		if a.Name.Matches(name) {
			return a.Data, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named no-namespace attribute, or "".
func (n *Node) AttrValue(local string) string {
	v, _ := n.Attr(Name(local))
	return v
}

// AttrNode returns the attribute node with the given name, or nil.
func (n *Node) AttrNode(name QName) *Node {
	for _, a := range n.Attrs() {
		if a.Name.Matches(name) {
			return a
		}
	}
	return nil
}

// FirstChild returns the first child or nil.
func (n *Node) FirstChild() *Node {
	if kids := n.Children(); len(kids) > 0 {
		return kids[0]
	}
	return nil
}

// LastChild returns the last child or nil.
func (n *Node) LastChild() *Node {
	if kids := n.Children(); len(kids) > 0 {
		return kids[len(kids)-1]
	}
	return nil
}

// childIndex returns n's position in its parent's child list, -1 if
// detached or an attribute.
func (n *Node) childIndex() int {
	if n.parent == nil || n.Type == AttributeNode {
		return -1
	}
	for i, c := range n.parent.el.children {
		if c == n {
			return i
		}
	}
	return -1
}

// NextSibling returns the following sibling or nil.
func (n *Node) NextSibling() *Node {
	i := n.childIndex()
	if i < 0 || i+1 >= len(n.parent.el.children) {
		return nil
	}
	return n.parent.el.children[i+1]
}

// PrevSibling returns the preceding sibling or nil.
func (n *Node) PrevSibling() *Node {
	i := n.childIndex()
	if i <= 0 {
		return nil
	}
	return n.parent.el.children[i-1]
}

// IsAncestorOf reports whether n is a proper ancestor of d.
func (n *Node) IsAncestorOf(d *Node) bool {
	for a := d.parent; a != nil; a = a.parent {
		if a == n {
			return true
		}
	}
	return false
}

// Walk visits n and every descendant (attributes excluded) in document
// order. Returning false from f stops the walk.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.Children() {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Elements returns descendant-or-self elements matching name (any name
// if local is "*").
func (n *Node) Elements(local string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && (local == "*" || c.Name.Local == local) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// ElementByID returns the first descendant element whose "id" attribute
// equals id, or nil. This backs getElementById-style lookups.
func (n *Node) ElementByID(id string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.AttrValue("id") == id {
			found = c
			return false
		}
		return true
	})
	return found
}

// Clone deep-copies the node and its subtree (and attributes). The copy
// is detached and carries no event listeners, matching XQuery copy
// semantics for constructed/inserted content.
func (n *Node) Clone() *Node { return n.clone(false) }

// CloneNormalized is Clone followed by NormalizeText on the copy, in one
// walk: at every level of the copy adjacent text children are one node
// and empty ones are gone — the form constructed XQuery content has.
func (n *Node) CloneNormalized() *Node { return n.clone(true) }

func (n *Node) clone(normalize bool) *Node {
	var c *Node
	switch n.Type {
	case DocumentNode:
		c = NewDocument()
	case ElementNode:
		c = NewElement(n.Name)
	default:
		c = &Node{Type: n.Type}
	}
	c.Name, c.Data = n.Name, n.Data
	c.SetBaseURI(n.BaseURI())
	// Each list is sized once, to its source's length: a clone that is
	// published (xmldb.update's new revision) keeps no append slack.
	if attrs := n.Attrs(); len(attrs) > 0 {
		slab := c.attrSlab(len(attrs))
		for i, a := range attrs {
			slab[i].Name, slab[i].Data = a.Name, a.Data
		}
	}
	kids := n.Children()
	if len(kids) == 0 {
		return c
	}
	out := make([]*Node, 0, len(kids))
	for _, k := range kids {
		if normalize && k.Type == TextNode {
			if k.Data == "" {
				continue
			}
			if len(out) > 0 && out[len(out)-1].Type == TextNode {
				out[len(out)-1].Data += k.Data
				continue
			}
		}
		kc := k.clone(normalize)
		kc.parent = c
		out = append(out, kc)
	}
	c.el.children = out
	return c
}
