package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// Node construction. What a constructor, an insert or a replace takes as
// content is a detached tree nothing else references. Usually that is a
// copy (XQuery copy semantics: a node taken from a document or a variable
// never aliases its source); where the planner proved the content
// expression fresh (ast.DirElem.Adopt: every node it yields was built by
// a constructor for this very evaluation and is reachable from nothing
// else) it is the constructed node itself, adopted — no program can tell
// the two apart.
//
// The outermost constructor of an expression, and the content list of
// an insert or replace, record their whole content first and build it
// once, the way the markup parser builds a parsed tree (DESIGN.md §5l):
// nested constructors and, in fresh content, the return clause of an
// enclosed FLWOR, the items of a sequence and the branch of an if record
// what they would build instead of building it, a copied node is
// recorded node by node once the expression that yields it has been
// evaluated whole, and the counts of the records size one dom.Builder.
// A constructed tree is then a few allocations at any size, and its
// attribute values and text are one string of its own.

// recKind is the kind of one record.
type recKind uint8

const (
	recElem     recKind = iota + 1
	recDoc              // the root of a document constructor
	recAttr             // an attribute of the element recorded last
	recRootAttr         // a parentless attribute: an insert's or a replace's
	recNoAttr           // given to a document: checked, then dropped
	recText
	recComment
	recPI
	recPlace // a fresh parentless node, placed as it is
)

// crec is one node of the content being recorded. An element's record
// is followed by those of its attributes, then by those of its content.
type crec struct {
	kind        recKind
	attrs, kids int32 // an element's or document's, once it has closed
	lo, hi      int32 // the value: text[lo:hi] of the recorder's text
	name        dom.QName
	node        *dom.Node // recPlace's
}

// level is the element, document or top-level list being recorded.
type level struct {
	el    int // its record; -1 for the top level
	attrs int // attribute records, right after el
	mark  int // len(recorder.kids) when it opened
	text  int // the record of the text child being extended, -1 if none
	// began is set by the first child item, even one that leaves no node
	// behind (empty text): from then on an attribute is an error. run is
	// set while the items of one content expression are atomics: the
	// next one is joined by a space.
	began, run bool
	// fresh is the planner's mark of the content expression being
	// recorded (see ast.DirElem.Adopt).
	fresh bool
	// Tree nodes (not text, not attributes: those go in by value) taken
	// as they are — recorded constructors included — and copied, for the
	// profiler.
	adopted, copied int64
}

// recorder is the scratch of one construction, reused from one to the
// next (recorders). It holds nothing of a construction that is over
// (release).
type recorder struct {
	recs []crec
	// kids holds the indexes in recs of the finished children of every
	// open level, innermost last; a level counts its own off the top
	// when it closes.
	kids []int32
	// text is every attribute value and text node of the content, in
	// the order recorded; a text record being extended ends at its end.
	text []byte
	// elems, leaves and slots are what the built tree takes of a
	// dom.Builder's blocks.
	elems, leaves, slots int
	lv                   level
	// placed is the nodes recorded to be placed, so that a node met
	// twice is copied the second time.
	placed map[*dom.Node]struct{}
	// pending is the first content error (a duplicate attribute, an
	// attribute after content) of the content expression being
	// recorded: it is raised when the expression has been evaluated
	// whole, as an evaluation error of the expression would have been
	// raised first.
	pending error
}

// recorders keeps the scratch of finished constructions for the next.
var recorders = sync.Pool{New: func() any { return new(recorder) }}

// newRecorder returns an empty recorder at its top level.
func newRecorder() *recorder {
	r := recorders.Get().(*recorder)
	r.recs, r.kids, r.text = r.recs[:0], r.kids[:0], r.text[:0]
	r.elems, r.leaves, r.slots = 0, 0, 0
	r.lv = level{el: -1, text: -1}
	return r
}

// release drops what r holds of the construction and pools it.
func (r *recorder) release() {
	clear(r.recs)
	clear(r.placed)
	r.pending = nil
	recorders.Put(r)
}

// open records an element or a document as the next child of the
// current level and makes it the current level. It returns the level
// it left, for close.
func (r *recorder) open(kind recKind, name dom.QName) level {
	i := len(r.recs)
	r.recs = append(r.recs, crec{kind: kind, name: name})
	r.child(i)
	outer := r.lv
	r.lv = level{el: i, mark: len(r.kids), text: -1}
	return outer
}

// close finishes the current level and goes back to outer. It returns
// what the level adopted and copied.
func (r *recorder) close(outer level) (adopted, copied int64) {
	lv := &r.lv
	kids := len(r.kids) - lv.mark
	r.kids = r.kids[:lv.mark]
	rec := &r.recs[lv.el]
	rec.attrs, rec.kids = int32(lv.attrs), int32(kids)
	if rec.kind == recElem {
		r.elems++
		r.slots += dom.ListSlots(lv.attrs, kids)
	} else {
		r.slots += kids
	}
	adopted, copied = lv.adopted, lv.copied
	r.lv = outer
	return adopted, copied
}

// child makes record i the next child of the current level.
func (r *recorder) child(i int) {
	r.kids = append(r.kids, int32(i))
	lv := &r.lv
	lv.began, lv.run, lv.text = true, false, -1
}

// count credits one tree node to the current level.
func (r *recorder) count(adopted bool) {
	if adopted {
		r.lv.adopted++
	} else {
		r.lv.copied++
	}
}

// leaf records a comment or processing instruction.
func (r *recorder) leaf(kind recKind, name dom.QName, data string) {
	lo := len(r.text)
	r.text = append(r.text, data...)
	i := len(r.recs)
	r.recs = append(r.recs, crec{kind: kind, name: name, lo: int32(lo), hi: int32(len(r.text))})
	r.child(i)
	r.leaves++
}

// addText appends character data to the current level, extending its
// last child if that is text the level made: adjacent text is one
// node, empty text is none.
func (r *recorder) addText(data string) {
	from := len(r.text)
	r.text = append(r.text, data...)
	r.took(from)
}

// took makes text[from:], just appended, character data of the current
// level.
func (r *recorder) took(from int) {
	lv := &r.lv
	lv.began = true
	if len(r.text) == from {
		return
	}
	if lv.text < 0 {
		lv.text = len(r.recs)
		r.recs = append(r.recs, crec{kind: recText, lo: int32(from)})
		r.kids = append(r.kids, int32(lv.text))
		r.leaves++
	}
	r.recs[lv.text].hi = int32(len(r.text))
}

// atomic appends an atomic item: a run of atomics is one space-separated
// text.
func (r *recorder) atomic(it xdm.Item) {
	from := len(r.text)
	if r.lv.run {
		r.text = append(r.text, ' ')
	}
	r.text = appendAtomized(r.text, it)
	r.took(from)
	r.lv.run = true
}

// attr records an attribute of the current level whose value is
// text[from:].
func (r *recorder) attr(name dom.QName, from int) {
	kind := recAttr
	switch {
	case r.lv.el < 0:
		kind = recRootAttr
	case r.recs[r.lv.el].kind == recDoc:
		kind = recNoAttr // a document has no attributes
	}
	r.recs = append(r.recs, crec{kind: kind, name: name, lo: int32(from), hi: int32(len(r.text))})
	r.lv.attrs++
	if kind != recNoAttr {
		r.leaves++
	}
}

// hasAttr reports whether the current level has an attribute named
// name.
func (r *recorder) hasAttr(name dom.QName) bool {
	first := r.lv.el + 1
	for _, a := range r.recs[first : first+r.lv.attrs] {
		if a.name.Matches(name) {
			return true
		}
	}
	return false
}

// fail notes a content error of the expression being recorded.
func (r *recorder) fail(err error) {
	if r.pending == nil {
		r.pending = err
	}
}

// items records an evaluated sequence: a run of atomics becomes one
// space-separated text, attribute nodes become attributes (only legal
// before any other content), a document node stands for its children,
// and every other node is placed if the expression is fresh and the
// node parentless, else copied.
func (r *recorder) items(s xdm.Sequence) {
	for _, it := range s {
		n, ok := xdm.IsNode(it)
		if !ok {
			r.atomic(it)
			continue
		}
		r.lv.run = false
		switch n.Type {
		case dom.AttributeNode:
			if r.lv.began {
				r.fail(fmt.Errorf("xquery: attribute %s constructed after element content", n.Name))
				continue
			}
			if r.hasAttr(n.Name) {
				r.fail(fmt.Errorf("xquery: duplicate attribute %s", n.Name))
				continue
			}
			from := len(r.text)
			r.text = append(r.text, n.Data...)
			r.attr(n.Name, from)
		case dom.DocumentNode:
			for _, k := range n.Children() {
				r.node(k)
			}
		default:
			r.node(n)
		}
	}
}

// node records a child node that the content expression yielded. The
// parent test is what keeps a wrong or stale mark from ever taking a
// node out of a tree: at worst a node that is attached — to the page,
// or placed a moment ago in this very content — is copied.
func (r *recorder) node(n *dom.Node) {
	if n.Type == dom.TextNode {
		r.addText(n.Data)
		return
	}
	if r.lv.fresh && n.Parent() == nil && r.claim(n) {
		r.count(true)
		i := len(r.recs)
		r.recs = append(r.recs, crec{kind: recPlace, node: n})
		r.child(i)
		return
	}
	r.count(false)
	r.copy(n)
}

// claim reports whether n is not placed yet, and marks it placed.
func (r *recorder) claim(n *dom.Node) bool {
	if _, dup := r.placed[n]; dup {
		return false
	}
	if r.placed == nil {
		r.placed = map[*dom.Node]struct{}{}
	}
	r.placed[n] = struct{}{}
	return true
}

// copy records a copy of n's subtree as it is now, in constructed
// normal form: adjacent text children are one node and empty ones are
// gone, at every level. The copy is recorded, not deferred to the
// build: what later content expressions do (a block's updates, a style
// change) must not show in it.
func (r *recorder) copy(n *dom.Node) {
	switch n.Type {
	case dom.ElementNode:
		outer := r.open(recElem, n.Name)
		for _, a := range n.Attrs() {
			from := len(r.text)
			r.text = append(r.text, a.Data...)
			r.attr(a.Name, from)
		}
		for _, k := range n.Children() {
			if k.Type == dom.TextNode {
				r.addText(k.Data)
			} else {
				r.copy(k)
			}
		}
		r.close(outer)
	case dom.CommentNode:
		r.leaf(recComment, n.Name, n.Data)
	case dom.ProcessingInstructionNode:
		r.leaf(recPI, n.Name, n.Data)
	}
}

// build builds the recorded content through one dom.Builder and returns
// its first root; roots, if not nil, gets every root appended.
func (r *recorder) build(roots *[]*dom.Node) *dom.Node {
	text := string(r.text) // the tree's one string
	b := dom.NewBuilder(r.elems, r.leaves, r.slots)
	var first *dom.Node
	for i := range r.recs {
		x := &r.recs[i]
		var n *dom.Node
		switch x.kind {
		case recElem:
			n = b.Element(x.name, int(x.attrs), int(x.kids))
		case recDoc:
			n = b.Document(int(x.kids))
		case recAttr:
			b.Attr(x.name, text[x.lo:x.hi])
			continue
		case recNoAttr:
			continue
		case recRootAttr:
			n = b.Leaf(dom.AttributeNode, x.name, text[x.lo:x.hi])
		case recText:
			n = b.Leaf(dom.TextNode, dom.QName{}, text[x.lo:x.hi])
		case recComment:
			n = b.Leaf(dom.CommentNode, dom.QName{}, text[x.lo:x.hi])
		case recPI:
			n = b.Leaf(dom.ProcessingInstructionNode, x.name, text[x.lo:x.hi])
		case recPlace:
			n = x.node
			b.Place(n)
		}
		if n.Parent() == nil {
			if first == nil {
				first = n
			}
			if roots != nil {
				*roots = append(*roots, n)
			}
		}
	}
	return first
}

// construct evaluates an outermost element or document constructor: it
// records the constructor's whole content and builds its tree once.
func (ctx *Context) construct(e ast.Expr) (xdm.Sequence, error) {
	r := newRecorder()
	defer r.release()
	var err error
	switch x := e.(type) {
	case ast.DirElem:
		err = ctx.recordElem(r, x)
	case ast.CompConstructor:
		err = ctx.recordComp(r, x)
	}
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.NewNode(r.build(nil))), nil
}

// evalContentNodes evaluates an insert/replace source into a content
// node list, attributes first, every node detached: a fresh source's
// trees go to the pending update list as they are, the others are
// copied, atomics become text. The list's nodes are the roots of one
// built tree.
func (ctx *Context) evalContentNodes(e ast.Expr, fresh bool, kind string) ([]*dom.Node, error) {
	r := newRecorder()
	defer r.release()
	if err := ctx.recordContent(r, e, fresh); err != nil {
		return nil, err
	}
	ctx.credit(kind, r.lv.adopted, r.lv.copied)
	var list []*dom.Node
	if n := len(r.kids) + r.lv.attrs; n > 0 {
		list = make([]*dom.Node, 0, n)
	}
	r.build(&list)
	return list, nil
}

// recordable reports whether record takes e apart rather than
// evaluating it: what builds content (a direct or computed element
// constructor) and, in fresh content, what hands the content of its
// operands on (a sequence, an if, a FLWOR that is not shipped). A
// document constructor nested in content stands for its children and is
// evaluated.
//
// A content expression that is not fresh is evaluated whole, and the
// nodes it yields are copied after it: taken apart, a node met early
// would be copied before a later part of the same expression (a block,
// a sequential call, a style statement) changed it. Fresh content
// yields no node another part can reach (fresh.go), so there the point
// of the copy cannot show.
func recordable(e ast.Expr, fresh bool) bool {
	switch x := e.(type) {
	case ast.DirElem:
		return true
	case ast.CompConstructor:
		return x.Kind == xdm.TElementNode
	case ast.SeqExpr, ast.If:
		return fresh
	case ast.FLWOR:
		return fresh && x.Ship == nil
	}
	return false
}

// record records the items e yields into r's current level. It charges
// the budget and the profiler exactly as Eval would for every
// expression it takes apart, and evaluates every other one.
func (ctx *Context) record(r *recorder, e ast.Expr) error {
	if !recordable(e, r.lv.fresh) {
		s, err := ctx.Eval(e)
		if err != nil {
			return err
		}
		r.items(s)
		return nil
	}
	if err := ctx.Budget.Step(); err != nil {
		return err
	}
	if ctx.Profiler != nil {
		start := time.Now()
		defer func() { ctx.Profiler.record(exprKind(e), time.Since(start)) }()
	}
	switch x := e.(type) {
	case ast.DirElem:
		return ctx.recordElem(r, x)
	case ast.CompConstructor:
		return ctx.recordComp(r, x)
	case ast.SeqExpr:
		for _, it := range x.Items {
			if err := ctx.record(r, it); err != nil {
				return err
			}
		}
		return nil
	case ast.If:
		c, err := ctx.evalEBV(x.Cond)
		if err != nil {
			return err
		}
		if c {
			return ctx.record(r, x.Then)
		}
		return ctx.record(r, x.Else)
	default: // ast.FLWOR
		en := flworEntry{f: e.(ast.FLWOR), rec: r}
		return en.run(ctx)
	}
}

// recordContent records one content expression of the current level,
// whose planner mark is fresh: the unit a constructor evaluated whole
// before it took the items in, so its content errors are raised after
// its evaluation errors.
func (ctx *Context) recordContent(r *recorder, e ast.Expr, fresh bool) error {
	outer := r.pending
	r.pending, r.lv.fresh, r.lv.run = nil, fresh, false
	err := ctx.record(r, e)
	if err == nil {
		err = r.pending
	}
	r.pending = outer
	return err
}

// recordElem records a direct element constructor as the next child of
// r's current level.
func (ctx *Context) recordElem(r *recorder, e ast.DirElem) error {
	r.count(r.lv.fresh)
	outer := r.open(recElem, e.Name)
	for _, a := range e.Attrs {
		from := len(r.text)
		if err := ctx.attrValue(r, a.Pieces); err != nil {
			return err
		}
		if r.hasAttr(a.Name) {
			return fmt.Errorf("xquery: duplicate attribute %s", a.Name)
		}
		r.attr(a.Name, from)
	}
	for i, ce := range e.Content {
		if lit, ok := ce.(ast.StringLit); ok {
			r.addText(lit.Val)
			continue
		}
		if err := ctx.recordContent(r, ce, e.AdoptContent(i)); err != nil {
			return err
		}
	}
	adopted, copied := r.close(outer)
	ctx.credit("DirElem", adopted, copied)
	return nil
}

// recordComp records a computed element or document constructor as the
// next child of r's current level. Its content is evaluated before its
// name, and its content errors are raised after both.
func (ctx *Context) recordComp(r *recorder, x ast.CompConstructor) error {
	kind := recElem
	if x.Kind == xdm.TDocumentNode {
		kind = recDoc
	}
	r.count(r.lv.fresh)
	outer := r.open(kind, x.Name)
	pending := r.pending
	r.pending, r.lv.fresh = nil, x.Adopt
	var err error
	if x.Content != nil {
		err = ctx.record(r, x.Content)
	}
	if err == nil && kind == recElem {
		r.recs[r.lv.el].name, err = ctx.constructorName(x)
	}
	if err == nil {
		err = r.pending
	}
	r.pending = pending
	if err != nil {
		return err
	}
	adopted, copied := r.close(outer)
	ctx.credit("CompConstructor", adopted, copied)
	return nil
}

// credit credits what a level adopted and copied to the profiler, under
// the kind of expression that built it.
func (ctx *Context) credit(kind string, adopted, copied int64) {
	if p := ctx.Profiler; p != nil {
		p.AddContent(kind+".adopted", adopted)
		p.AddContent(kind+".copied", copied)
	}
}

// attrValue appends the value of an attribute value template to r's
// text: literal runs verbatim, enclosed expressions atomized and
// space-joined.
func (ctx *Context) attrValue(r *recorder, pieces []ast.Expr) error {
	for _, piece := range pieces {
		if lit, ok := piece.(ast.StringLit); ok {
			r.text = append(r.text, lit.Val...)
			continue
		}
		s, err := ctx.Eval(piece)
		if err != nil {
			return err
		}
		for i, it := range s {
			if i > 0 {
				r.text = append(r.text, ' ')
			}
			r.text = appendAtomized(r.text, it)
		}
	}
	return nil
}

// appendAtomized appends the string value of it atomized: an integer
// without a string of its own.
func appendAtomized(b []byte, it xdm.Item) []byte {
	if v, ok := it.(xdm.Integer); ok {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, it.String()...)
}

func (ctx *Context) evalCompConstructor(x ast.CompConstructor) (xdm.Sequence, error) {
	if x.Kind == xdm.TElementNode || x.Kind == xdm.TDocumentNode {
		return ctx.construct(x)
	}
	val := xdm.Sequence(nil)
	if x.Content != nil {
		var err error
		val, err = ctx.Eval(x.Content)
		if err != nil {
			return nil, err
		}
	}
	switch x.Kind {
	case xdm.TAttributeNode:
		name, err := ctx.constructorName(x)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(dom.NewAttr(name, joinAtomized(val)))), nil
	case xdm.TTextNode:
		if len(val) == 0 {
			return nil, nil // text {()} is the empty sequence
		}
		return xdm.Singleton(xdm.NewNode(dom.NewText(joinAtomized(val)))), nil
	case xdm.TCommentNode:
		return xdm.Singleton(xdm.NewNode(dom.NewComment(joinAtomized(val)))), nil
	case xdm.TPINode:
		name, err := ctx.constructorName(x)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(dom.NewPI(name.Local, joinAtomized(val)))), nil
	default:
		return nil, fmt.Errorf("xquery: unknown computed constructor kind %v", x.Kind)
	}
}

func (ctx *Context) constructorName(x ast.CompConstructor) (dom.QName, error) {
	if x.NameExpr == nil {
		return x.Name, nil
	}
	it, err := ctx.evalAtomizedOne(x.NameExpr)
	if err != nil {
		return dom.QName{}, err
	}
	if it == nil {
		return dom.QName{}, fmt.Errorf("xquery: computed constructor name is the empty sequence")
	}
	return lexicalQName(it)
}

// lexicalQName turns an atomic item into a QName: QName values pass
// through, strings are split on ":" (the prefix is kept lexical — our
// documents are predominantly in no namespace).
func lexicalQName(it xdm.Item) (dom.QName, error) {
	if q, ok := it.(xdm.QNameValue); ok {
		return q.Name, nil
	}
	s := strings.TrimSpace(it.String())
	if s == "" {
		return dom.QName{}, fmt.Errorf("xquery: empty name in constructor")
	}
	if i := strings.IndexByte(s, ':'); i > 0 {
		return dom.QName{Prefix: s[:i], Local: s[i+1:]}, nil
	}
	return dom.Name(s), nil
}

// joinAtomized is the string a sequence contributes to character
// content: its items atomized and joined by single spaces.
func joinAtomized(s xdm.Sequence) string {
	if len(s) == 1 {
		return xdm.Atomize(s[0]).String()
	}
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = xdm.Atomize(it).String()
	}
	return strings.Join(parts, " ")
}
