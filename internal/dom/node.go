// Package dom implements a mutable XML/HTML document object model with
// DOM Level 3 style event dispatch. It is the tree the browser renders
// and the store the XQuery engine's data model wraps ("implementing the
// XDM on top of the DOM", paper §5.2).
//
// The package is self-contained: it knows nothing about XQuery. Higher
// layers (internal/xdm, internal/browser, internal/core) build on it.
package dom

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
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
// text, comment, PI or attribute node is exactly this (96 bytes, the
// 96-byte allocator class). The child and attribute lists and the
// tree's version counter live in an elemPart that elements and
// documents allocate right behind the node (part), and what only a root
// or a listened-to node has lives in a nodeSide (DESIGN.md §5q, §5aa).
// So elements and documents come from NewElement, NewDocument and Clone
// only — a Node literal is a leaf, and a node's Type never changes —
// and the mutators that take children or attributes are for those two
// kinds.
type Node struct {
	Type NodeType
	Name QName  // element, attribute, PI (Local = target) names
	Data string // text/comment content, attribute value, PI data

	parent *Node

	// side is nil on ordinary nodes. A document is constructed with one;
	// any other node gets one (ensureSide) when it is given a base URI or
	// a listener, or when it is the root of a tree being indexed,
	// labeled or looked up by id.
	side atomic.Pointer[nodeSide]

	// label is the node's document-order pre/end pair (order.go), pre in
	// the high half; current while its root's side struct says so.
	label uint64
}

// elemPart is the state only a node with content has: the lists of an
// element or a document, and the version counter of the tree it roots.
type elemPart struct {
	children []*Node
	attrs    []*Node // attribute nodes; their parent is this element
	// one is the attribute list of an element with a single attribute
	// (attrs is one[:1:1]): a <td id="…"> takes no list slot.
	one [1]*Node

	// version is the mutation counter of the tree rooted here, bumped on
	// every mutation of the tree (versionWord). It is a plain word:
	// whoever mutates a tree has it to itself — the child and attribute
	// lists never allowed anything else — and the goroutines that share
	// an immutable tree only read it. It is here, not in the side
	// struct: a mutation of a detached element root must not allocate
	// for it. A node that leaves its tree is bumped too (orphan). A leaf
	// keeps its counter in its side struct, if it has one.
	version uint64
}

// part returns the lists of an element or a document — the elemPart
// allocated right behind the node, elemNode's and docNode's common
// prefix — and nil for every other kind.
func (n *Node) part() *elemPart {
	if n.Type != ElementNode && n.Type != DocumentNode {
		return nil
	}
	return &(*elemNode)(unsafe.Pointer(n)).part
}

// nodeSide is the state only a root or a listened-to node has. It is
// reached through Node.side and published race-free: a document's is
// part of the document's own allocation and installed before the node
// is returned, any other node's is installed by compare-and-swap, so
// concurrent readers of a shared immutable tree (which may build and
// store its indexes, and label it) agree on one. The fields other than
// the index slots, the labeling pair and the id map pointer are written
// under the exclusive access every mutation needs.
type nodeSide struct {
	// baseURI is set on document nodes (fn:doc identity, same-origin
	// checks) and inherited by descendants; see Base.
	baseURI string

	// Event listeners in registration order: the first inline, so that
	// a node with one listener — the common case — allocates the side
	// struct and nothing else. first.seq == 0 means there are none.
	first listener
	more  []listener
	seq   uint32 // the last registration number handed out

	// scans counts the sibling lookups that found the labels of the tree
	// rooted here stale: 1 + their version << scanBits, plus their number
	// (SiblingIndex, order.go). Meaningful on roots only.
	scans atomic.Uint32

	// indexes holds the per-document indexes of the tree rooted at this
	// node, one slot per kind (lifecycle.go); meaningful on roots only.
	indexes [indexSlots]atomic.Pointer[indexEntry]

	// labeled is 1 + the version the labels of the tree rooted here were
	// written at (0: not current), stored after them under labelMu
	// (order.go). Meaningful on roots only.
	labeled atomic.Uint64
	labelMu sync.Mutex

	// idmap is the id → element map of the tree rooted here (ids.go),
	// nil until its first id lookup. Meaningful on roots only.
	idmap atomic.Pointer[idMap]

	// version is the mutation counter of a leaf that roots its tree
	// (an element or a document keeps its own in its elemPart). A leaf
	// with no side struct needs none: nothing is cached on it.
	version uint64
}

// elemNode is how an element is allocated: the node and its lists in
// one object, 160 bytes (the 160-byte class), alone or carved from a
// builder's block. part reaches the lists from the node's own address.
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
	d.node.Type = DocumentNode
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

// NewElement creates a detached element node. A node made alone is
// allocated alone and set up as a builder sets up one it carves: through
// the builder, one node cost 30 to 55 ns more, an eighth of a turn that
// constructs a 12×12 table.
func NewElement(name QName) *Node { return new(elemNode).init(name) }

// NewText creates a detached text node.
func NewText(data string) *Node { return new(Node).init(TextNode, QName{}, data) }

// NewComment creates a detached comment node.
func NewComment(data string) *Node { return new(Node).init(CommentNode, QName{}, data) }

// NewAttr creates a detached attribute node.
func NewAttr(name QName, value string) *Node { return new(Node).init(AttributeNode, name, value) }

// NewPI creates a detached processing-instruction node.
func NewPI(target, data string) *Node {
	return new(Node).init(ProcessingInstructionNode, Name(target), data)
}

// Parent returns the parent node (the owning element for attributes),
// or nil for detached nodes and documents.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child list. Callers must not mutate the slice.
func (n *Node) Children() []*Node {
	if p := n.part(); p != nil {
		return p.children
	}
	return nil
}

// Attrs returns the attribute nodes of an element in insertion order.
// Callers must not mutate the slice.
func (n *Node) Attrs() []*Node {
	if p := n.part(); p != nil {
		return p.attrs
	}
	return nil
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

// ChildIndex returns n's position in its parent's child list, -1 if
// it is detached or an attribute: by binary search on the pre labels
// when the labels of n's tree are current, by one scan of the list
// otherwise. NextSibling/PrevSibling and the mutators step through the
// list from it; the sibling axes use SiblingIndex.
func (n *Node) ChildIndex() int {
	if n.parent == nil || n.Type == AttributeNode {
		return -1
	}
	kids := n.parent.part().children
	if n.Root().labeledNow() {
		pre, _ := n.labels()
		if i, ok := slices.BinarySearchFunc(kids, pre, func(c *Node, pre uint32) int {
			p, _ := c.labels()
			return cmp.Compare(p, pre)
		}); ok {
			return i
		}
	}
	return slices.Index(kids, n)
}

// NextSibling returns the following sibling or nil.
func (n *Node) NextSibling() *Node {
	i := n.ChildIndex()
	if i < 0 || i+1 >= len(n.parent.part().children) {
		return nil
	}
	return n.parent.part().children[i+1]
}

// PrevSibling returns the preceding sibling or nil.
func (n *Node) PrevSibling() *Node {
	i := n.ChildIndex()
	if i <= 0 {
		return nil
	}
	return n.parent.part().children[i-1]
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

// Clone deep-copies the node and its subtree (and attributes). The copy
// is detached and carries no event listeners, matching XQuery copy
// semantics for constructed/inserted content. It counts its source
// first and builds once (treeCount, builder). It shares its source's
// strings, so it builds from the tree itself, not from a recording.
func (n *Node) Clone() *Node {
	var c treeCount
	c.add(n)
	b := newBuilder(c.elems, c.leaves, c.slots)
	return b.copy(n)
}

// treeCount is what a builder needs to know of a tree before building
// it: its elements, its leaves and its list slots.
type treeCount struct{ elems, leaves, slots int }

// add counts n's subtree.
func (c *treeCount) add(n *Node) {
	kids := n.Children()
	for _, kid := range kids {
		c.add(kid)
	}
	switch n.Type {
	case DocumentNode:
		c.slots += len(kids)
	case ElementNode:
		c.elems++
		c.leaves += len(n.Attrs())
		c.slots += listSlots(len(n.Attrs()), len(kids))
	default:
		c.leaves++
	}
}

// copy adds a copy of n's subtree, as treeCount.add counted it.
func (b *builder) copy(n *Node) *Node {
	kids := n.Children()
	var c *Node
	switch n.Type {
	case DocumentNode:
		c = b.document(len(kids))
	case ElementNode:
		c = b.element(n.Name, len(n.Attrs()), len(kids))
		for _, a := range n.Attrs() {
			b.attr(a.Name, a.Data)
		}
	default:
		c = b.leaf(n.Type, n.Name, n.Data)
	}
	c.SetBaseURI(n.BaseURI())
	for _, kid := range kids {
		b.copy(kid)
	}
	return c
}
