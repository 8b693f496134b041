package dom

import (
	"slices"
	"unsafe"
)

// Bulk construction. The mutators in tree.go guard a tree other code can
// already see: each checks for cycles and bumps the root's version.
// A tree nobody else holds a pointer to needs neither: it is recorded
// (Recorder) or, by Clone, counted, then built through a builder, which
// carves every node and list of the tree from three exactly sized
// blocks (DESIGN.md §5l, §5q): allocations per tree and kind, not per
// node and per list. A node made alone (NewElement, …) is set up by the
// same init.

// builder carves the nodes of one tree and their child and attribute
// lists from three blocks sized by newBuilder: the elements, the leaves
// (text, comment, PI and attribute nodes) and the list slots. Every
// carved list has the capacity of its length, so a later AppendChild or
// SetAttr reallocates it and never writes into a neighbour's range.
//
// Nodes are added in document order, an element's attributes (attr)
// before its content. Each node becomes the next child of the innermost
// element or document whose child list is not yet full, or a root. A
// node or slot beyond the counts panics.
//
// A carved node keeps its whole block reachable, so a subtree detached
// from a built tree keeps the blocks of that tree alive for as long as
// it lives (an attached node keeps its tree alive through its parent
// anyway).
type builder struct {
	elems, elemsTail   []elemNode
	leaves, leavesTail []Node
	slots              []*Node
	// cur is the innermost element or document whose child list is not
	// full; last is the element the next attr belongs to.
	cur, last *Node
}

// newBuilder returns a builder for elems elements, leaves leaf nodes
// and slots list slots: what listSlots gives for every element and
// document of the tree, summed. Zero counts allocate nothing.
func newBuilder(elems, leaves, slots int) builder {
	var b builder
	if slots > 0 {
		b.slots = make([]*Node, slots)
	}
	b.elems, b.elemsTail = block[elemNode](elems)
	b.leaves, b.leavesTail = block[Node](leaves)
	return b
}

// sizeClasses are the object sizes of Go's allocator up to 32 KB
// (runtime/sizeclasses.go): a small object takes the first that holds
// it — 8 bytes more, a header, if it has pointers and is above 512 —
// and a larger one whole 8 KB pages.
var sizeClasses = [...]int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144,
	160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480,
	512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048,
	2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912,
	8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432,
	19072, 20480, 21760, 24576, 27264, 28672, 32768}

const headerAbove, mallocHeader, pageSize = 512, 8, 8 << 10

// allocated is what Go's allocator takes for an object of n bytes with
// pointers.
func allocated(n int) int {
	switch {
	case n == 0:
		return 0
	case n > sizeClasses[len(sizeClasses)-1]-mallocHeader:
		return (n + pageSize - 1) / pageSize * pageSize
	case n > headerAbove:
		n += mallocHeader
	}
	i, _ := slices.BinarySearch(sizeClasses[:], n)
	return sizeClasses[i]
}

// block returns storage for n nodes of type T in one allocation or in
// two, whichever the allocator rounds up least: a head that fills a
// size class or whole pages, and the rest. One block rounded up to the
// next class or page wasted up to a sixth of it — a fifth of the cart
// page's element block, a tenth of a stored article's leaves — where
// the best two waste a few nodes' worth.
func block[T any](n int) (head, tail []T) {
	size, h := int(unsafe.Sizeof(*new(T))), n
	switch bytes := n * size; {
	case n == 0:
		return nil, nil
	case bytes > 2*headerAbove:
		least := allocated(bytes)
		try := func(head int) { // a head that fills an object of head bytes
			if k := head / size; k > 0 && k < n {
				if b := allocated(k*size) + allocated(bytes-k*size); b < least {
					h, least = k, b
				}
			}
		}
		for _, c := range sizeClasses {
			if c > headerAbove && c-mallocHeader < bytes {
				try(c - mallocHeader)
			}
		}
		try(bytes / pageSize * pageSize)
	}
	if head = make([]T, h); h < n {
		tail = make([]T, n-h)
	}
	return head, tail
}

// carve takes the next node of a block.
func carve[T any](head, tail *[]T) *T {
	if len(*head) == 0 {
		*head, *tail = *tail, nil
	}
	n := &(*head)[0]
	*head = (*head)[1:]
	return n
}

// listSlots is the number of list slots an element with attrs
// attributes and kids children takes from a builder's block: one per
// child and per attribute, except that an element's single attribute
// sits in the element itself.
func listSlots(attrs, kids int) int {
	if attrs == 1 {
		attrs = 0
	}
	return attrs + kids
}

// element adds an element named name whose lists hold attrs attributes
// and kids children. Its attributes are the next attrs attr calls.
func (b *builder) element(name QName, attrs, kids int) *Node {
	e := carve(&b.elems, &b.elemsTail)
	n := e.init(name)
	e.part.attrs = b.attrList(&e.part, attrs)
	e.part.children = b.list(kids)
	b.last = n
	b.place(n, kids)
	return n
}

// init sets up a zeroed element, carved or allocated alone.
func (e *elemNode) init(name QName) *Node {
	e.node.Type, e.node.Name = ElementNode, name
	return &e.node
}

// document adds a document node whose child list holds kids children.
// The document itself is not carved: a tree has at most one.
func (b *builder) document(kids int) *Node {
	d := NewDocument()
	d.part().children = b.list(kids)
	b.place(d, kids)
	return d
}

// attr adds an attribute to the element added last.
func (b *builder) attr(name QName, value string) {
	a := carve(&b.leaves, &b.leavesTail).init(AttributeNode, name, value)
	a.parent = b.last
	e := b.last.part()
	e.attrs = append(e.attrs, a)
}

// leaf adds a text, comment or processing-instruction node, or a root
// of any leaf kind (an attribute only as a root: see attr).
func (b *builder) leaf(t NodeType, name QName, data string) *Node {
	n := carve(&b.leaves, &b.leavesTail).init(t, name, data)
	b.place(n, 0)
	return n
}

// init sets up a zeroed leaf, carved or allocated alone.
func (n *Node) init(t NodeType, name QName, data string) *Node {
	n.Type, n.Name, n.Data = t, name, data
	return n
}

// list carves an empty list with room for exactly k nodes.
func (b *builder) list(k int) []*Node {
	if k == 0 {
		return nil
	}
	l := b.slots[:0:k]
	b.slots = b.slots[k:]
	return l
}

// attrList is the empty attribute list of e with room for exactly k
// attributes: e's own slot when k is one, else carved.
func (b *builder) attrList(e *elemPart, k int) []*Node {
	if k == 1 {
		return e.one[:0:1]
	}
	return b.list(k)
}

// place makes n the next child of the innermost open list, if there is
// one, and moves on: into n when n has children to come, else up past
// every list n filled.
func (b *builder) place(n *Node, kids int) {
	if p := b.cur; p != nil {
		n.parent = p
		e := p.part()
		e.children = append(e.children, n)
	}
	if kids > 0 {
		b.cur = n
		return
	}
	for b.cur != nil {
		if e := b.cur.part(); len(e.children) < cap(e.children) {
			return
		}
		b.cur = b.cur.parent
	}
}
