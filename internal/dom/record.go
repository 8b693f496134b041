package dom

// Recorder records a tree in document order, counting what it keeps,
// then builds it through one exactly sized builder: how the markup
// parser, XQuery constructors and the host's event element make their
// trees (DESIGN.md §5l, §5p). Every string of the tree is a Str: a span
// of the recording's text (Append, Take), which becomes one string of
// the tree's own, or a string the tree shares (Str). An element's
// attributes follow its Open, and it is named when it closes (a computed
// constructor's name is evaluated after its content); what is recorded
// outside every level is a root. Build empties the recorder; one
// abandoned part way is dropped by zeroing it.
type Recorder struct {
	recs []record
	// kids holds the indexes in recs of the roots and of the finished
	// children of every open level, innermost last; a level counts its
	// own off the top when it closes.
	kids []int32
	// open is 1 + the record of the innermost open level, 0 at the top.
	open                 int32
	text                 []byte
	from                 int // text[from:] is appended and not yet taken
	table                []string
	elems, leaves, slots int // what the tree takes of a builder's blocks
}

// Str is a string of a recording: text[lo:hi], or for lo < 0 the table
// entry -1-lo. The zero Str is "".
type Str struct{ lo, hi int32 }

// record is one node of a recording. An element's record is followed by
// those of its attributes, then by those of its content.
type record struct {
	kind NodeType
	// An element's or document's attributes and children; while it is
	// open, kids is len(Recorder.kids) at Open and up the outer open.
	attrs, kids, up           int32
	space, prefix, local, val Str
	node                      *Node // an adopted tree
}

// Str returns s as a string of the recording that the built tree
// shares.
func (r *Recorder) Str(s string) Str {
	if s == "" {
		return Str{}
	}
	if n := len(r.table); n > 0 && r.table[n-1] == s { // a name closing again
		return Str{lo: int32(-n)}
	}
	r.table = append(r.table, s)
	return Str{lo: int32(-len(r.table))}
}

// Append appends s to the text not yet taken.
func (r *Recorder) Append(s string) { r.text = append(r.text, s...) }

// Take returns the text appended since the last Take.
func (r *Recorder) Take() Str {
	s := Str{int32(r.from), int32(len(r.text))}
	r.from = len(r.text)
	return s
}

// Open records an element or a document and opens it.
func (r *Recorder) Open(kind NodeType) {
	i := r.add(record{kind: kind, up: r.open})
	r.recs[i].kids, r.open = int32(len(r.kids)), int32(i+1)
}

// Close closes the innermost open level, naming it if it is an element.
func (r *Recorder) Close(space, prefix, local Str) {
	x := &r.recs[r.open-1]
	x.kids, r.kids, r.open = int32(len(r.kids))-x.kids, r.kids[:x.kids], x.up
	x.space, x.prefix, x.local = space, prefix, local
	if x.kind == ElementNode {
		r.elems++
	}
	r.leaves += int(x.attrs) // a document has none
	r.slots += listSlots(int(x.attrs), int(x.kids))
}

// Leaf records a leaf node named as an attribute or a processing
// instruction is. An attribute belongs to the element opened last,
// before its content, or is a root. Text with an empty value is none:
// character data appended between two Takes is one text node.
func (r *Recorder) Leaf(kind NodeType, space, prefix, local, value Str) {
	if kind == TextNode && value.lo == value.hi {
		return
	}
	x := record{kind: kind, space: space, prefix: prefix, local: local, val: value}
	if kind == AttributeNode && r.open > 0 {
		e := &r.recs[r.open-1]
		if e.kind != ElementNode || len(r.kids) > int(e.kids) {
			panic("dom: Recorder: an attribute outside a start tag")
		}
		e.attrs++
		r.recs = append(r.recs, x)
		return
	}
	r.add(x)
	r.leaves++
}

// Adopt records n, a parentless tree built elsewhere, to be placed as it
// is: nothing of it is carved or copied, and an id map it kept as a root
// is dropped. An attached node, an attribute or a document panics.
func (r *Recorder) Adopt(n *Node) {
	if n.parent != nil || n.Type == AttributeNode || n.Type == DocumentNode {
		panic("dom: Recorder.Adopt: node is attached or cannot be a child")
	}
	r.add(record{kind: n.Type, node: n})
}

// add records x as the next child of the innermost level, or a root.
func (r *Recorder) add(x record) int {
	r.recs = append(r.recs, x)
	r.kids = append(r.kids, int32(len(r.recs)-1))
	return len(r.recs) - 1
}

// Build builds the recording, all its levels closed, and returns roots
// with its roots appended, grown to exactly what they need if it must.
func (r *Recorder) Build(roots []*Node) []*Node {
	if need := len(roots) + len(r.kids); cap(roots) < need {
		roots = append(make([]*Node, 0, need), roots...)
	}
	b := newBuilder(r.elems, r.leaves, r.slots)
	roots = r.build(&b, roots)
	r.reset()
	return roots
}

// reset empties r, keeping its scratch but no node or string.
func (r *Recorder) reset() {
	clear(r.recs)
	clear(r.table)
	r.recs, r.kids, r.text, r.table = r.recs[:0], r.kids[:0], r.text[:0], r.table[:0]
	r.from, r.elems, r.leaves, r.slots = 0, 0, 0, 0
}

// build adds the recording to b, which it sizes, in document order.
func (r *Recorder) build(b *builder, roots []*Node) []*Node {
	text := string(r.text) // the tree's one string
	str := func(s Str) string {
		if s.lo < 0 {
			return r.table[-1-s.lo]
		}
		return text[s.lo:s.hi]
	}
	for i := 0; i < len(r.recs); i++ {
		x := &r.recs[i]
		name := QName{Space: str(x.space), Prefix: str(x.prefix), Local: str(x.local)}
		var n *Node
		switch {
		case x.node != nil:
			n = x.node
			n.dropIDMap()
			b.place(n, 0)
		case x.kind == ElementNode:
			n = b.element(name, int(x.attrs), int(x.kids))
			for range x.attrs {
				i++
				a := &r.recs[i]
				b.attr(QName{Space: str(a.space), Prefix: str(a.prefix), Local: str(a.local)}, str(a.val))
			}
		case x.kind == DocumentNode:
			n = b.document(int(x.kids))
		default:
			n = b.leaf(x.kind, name, str(x.val))
		}
		if n.parent == nil {
			roots = append(roots, n)
		}
	}
	return roots
}
