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
// an insert or replace, record their whole content through one
// dom.Recorder and build it once, as the markup parser does (DESIGN.md
// §5l, §5p): nested constructors and, in fresh content, the return
// clause of an enclosed FLWOR, the items of a sequence and the branch
// of an if record what they would build, and a copied node is recorded
// once the expression that yields it has been evaluated whole.

// level is the element, document or top-level list (kind 0) being
// recorded; attrs is len(recorder.attrs) when it opened.
type level struct {
	kind  dom.NodeType
	attrs int
	// began is set by the first child item, even empty text: from then
	// on an attribute is an error. run is set while the items of one
	// content expression are atomics, joined by spaces. fresh is the
	// planner's mark of that expression (ast.DirElem.Adopt).
	began, run, fresh bool
	// Tree nodes (not text or attributes, which go in by value) adopted
	// — recorded constructors included — and copied, for the profiler.
	adopted, copied int64
}

// recorder is the scratch of one construction, reused from one to the
// next (recorders): the content rules on top of the dom.Recorder that
// records the content. Character data appended since the current
// level's last child is its next text node. It holds nothing of a
// construction that is over (release).
type recorder struct {
	dom.Recorder
	lv    level
	attrs []dom.QName // of every open level, innermost last
	// placed is the nodes recorded to be placed: one met twice is
	// copied the second time.
	placed map[*dom.Node]struct{}
	// pending is the first content error (a duplicate attribute, an
	// attribute after content) of the content expression being recorded,
	// raised once the expression has been evaluated whole.
	pending error
	built   bool // unset: the recording was abandoned part way
}

// recorders keeps the scratch of finished constructions for the next.
var recorders = sync.Pool{New: func() any { return new(recorder) }}

// release drops what r holds of the construction and pools it, empty
// and at its top level.
func (r *recorder) release() {
	if !r.built {
		r.Recorder = dom.Recorder{}
	}
	clear(r.attrs[:cap(r.attrs)])
	clear(r.placed)
	r.attrs, r.lv, r.built, r.pending = r.attrs[:0], level{}, false, nil
	recorders.Put(r)
}

// open records an element or a document as the next child of the
// current level and makes it the current level. It returns the level
// it left, for close.
func (r *recorder) open(kind dom.NodeType) level {
	r.child()
	r.Open(kind)
	outer := r.lv
	r.lv = level{kind: kind, attrs: len(r.attrs)}
	return outer
}

// close finishes the current level, names it, and goes back to outer.
// It returns what the level adopted and copied.
func (r *recorder) close(outer level, name dom.QName) (adopted, copied int64) {
	r.flush()
	r.Close(r.Str(name.Space), r.Str(name.Prefix), r.Str(name.Local))
	r.attrs = r.attrs[:r.lv.attrs]
	adopted, copied = r.lv.adopted, r.lv.copied
	r.lv = outer
	return adopted, copied
}

// child ends the current level's text: what is recorded next is its
// next child.
func (r *recorder) child() {
	r.flush()
	r.lv.began, r.lv.run = true, false
}

// flush records the character data appended since the current level's
// last child as its one text node, if any.
func (r *recorder) flush() {
	r.Leaf(dom.TextNode, dom.Str{}, dom.Str{}, dom.Str{}, r.Take())
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
func (r *recorder) leaf(kind dom.NodeType, name dom.QName, data string) {
	r.child()
	r.Append(data)
	r.Leaf(kind, r.Str(name.Space), r.Str(name.Prefix), r.Str(name.Local), r.Take())
}

// addText appends character data to the current level.
func (r *recorder) addText(data string) {
	r.Append(data)
	r.lv.began = true
}

// atomic appends an atomic item: a run of atomics is one space-separated
// text.
func (r *recorder) atomic(it xdm.Item) {
	if r.lv.run {
		r.Append(" ")
	}
	appendAtomized(&r.Recorder, it)
	r.lv.began, r.lv.run = true, true
}

// attr records an attribute of the current level whose value is what
// was appended since the last child. A document's is checked, then
// dropped: a document has no attributes.
func (r *recorder) attr(name dom.QName) {
	v := r.Take()
	r.attrs = append(r.attrs, name)
	if r.lv.kind != dom.DocumentNode {
		r.Leaf(dom.AttributeNode, r.Str(name.Space), r.Str(name.Prefix), r.Str(name.Local), v)
	}
}

// hasAttr reports whether the current level has an attribute named
// name.
func (r *recorder) hasAttr(name dom.QName) bool {
	for _, a := range r.attrs[r.lv.attrs:] {
		if a.Matches(name) {
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
			r.Append(n.Data)
			r.attr(n.Name)
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
		r.child()
		r.Adopt(n)
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
		outer := r.open(dom.ElementNode)
		for _, a := range n.Attrs() {
			r.Append(a.Data)
			r.attr(a.Name)
		}
		for _, k := range n.Children() {
			if k.Type == dom.TextNode {
				r.addText(k.Data)
			} else {
				r.copy(k)
			}
		}
		r.close(outer, n.Name)
	case dom.CommentNode:
		r.leaf(dom.CommentNode, dom.QName{}, n.Data)
	case dom.ProcessingInstructionNode:
		r.leaf(dom.ProcessingInstructionNode, n.Name, n.Data)
	}
}

// build builds the recording into roots.
func (r *recorder) build(roots []*dom.Node) []*dom.Node {
	r.flush()
	r.built = true
	return r.Build(roots)
}

// construct evaluates an outermost element or document constructor: it
// records the constructor's whole content and builds its tree once.
func (ctx *Context) construct(e ast.Expr) (xdm.Sequence, error) {
	r := recorders.Get().(*recorder)
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
	var root [1]*dom.Node
	return xdm.Singleton(xdm.NewNode(r.build(root[:0])[0])), nil
}

// evalContentNodes evaluates an insert/replace source into a content
// node list, attributes first, every node detached: a fresh source's
// trees go to the pending update list as they are, the others are
// copied, atomics become text. The list's nodes are the roots of one
// built tree.
func (ctx *Context) evalContentNodes(e ast.Expr, fresh bool, kind string) ([]*dom.Node, error) {
	r := recorders.Get().(*recorder)
	defer r.release()
	if err := ctx.recordContent(r, e, fresh); err != nil {
		return nil, err
	}
	ctx.credit(kind, r.lv.adopted, r.lv.copied)
	return r.build(nil), nil
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
	outer := r.open(dom.ElementNode)
	for _, a := range e.Attrs {
		if err := ctx.attrValue(r, a.Pieces); err != nil {
			return err
		}
		if r.hasAttr(a.Name) {
			return fmt.Errorf("xquery: duplicate attribute %s", a.Name)
		}
		r.attr(a.Name)
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
	adopted, copied := r.close(outer, e.Name)
	ctx.credit("DirElem", adopted, copied)
	return nil
}

// recordComp records a computed element or document constructor as the
// next child of r's current level. Its content is evaluated before its
// name, and its content errors are raised after both.
func (ctx *Context) recordComp(r *recorder, x ast.CompConstructor) error {
	kind := dom.ElementNode
	if x.Kind == xdm.TDocumentNode {
		kind = dom.DocumentNode
	}
	r.count(r.lv.fresh)
	outer := r.open(kind)
	pending := r.pending
	r.pending, r.lv.fresh = nil, x.Adopt
	var err error
	if x.Content != nil {
		err = ctx.record(r, x.Content)
	}
	var name dom.QName
	if err == nil && kind == dom.ElementNode {
		name, err = ctx.constructorName(x)
	}
	if err == nil {
		err = r.pending
	}
	r.pending = pending
	if err != nil {
		return err
	}
	adopted, copied := r.close(outer, name)
	ctx.credit("CompConstructor", adopted, copied)
	return nil
}

// credit credits what a level adopted and copied to the profiler, under
// the kind of expression that built it.
func (ctx *Context) credit(kind string, adopted, copied int64) {
	if p := ctx.Profiler; p != nil {
		p.Add("content:"+kind+".adopted", adopted)
		p.Add("content:"+kind+".copied", copied)
	}
}

// attrValue appends the value of an attribute value template to r's
// recording: literal runs verbatim, enclosed expressions atomized and
// space-joined.
func (ctx *Context) attrValue(r *recorder, pieces []ast.Expr) error {
	for _, piece := range pieces {
		if lit, ok := piece.(ast.StringLit); ok {
			r.Append(lit.Val)
			continue
		}
		s, err := ctx.Eval(piece)
		if err != nil {
			return err
		}
		for i, it := range s {
			if i > 0 {
				r.Append(" ")
			}
			appendAtomized(&r.Recorder, it)
		}
	}
	return nil
}

// appendAtomized appends the string value of it atomized to r: an
// integer without a string of its own.
func appendAtomized(r *dom.Recorder, it xdm.Item) {
	if v, ok := it.(xdm.Integer); ok {
		var b [20]byte
		r.Append(string(strconv.AppendInt(b[:0], int64(v), 10)))
		return
	}
	r.Append(it.String())
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
