package runtime

import (
	"fmt"
	"strings"

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
// the two apart, and a tree is then allocated once however deeply its
// constructors nest.

// content assembles one level of a node under construction from
// evaluated sequences: the attributes and children of a constructor's
// element or document (parent), or the detached content list of an
// insert or replace (parent nil). It keeps that level in constructed
// normal form as it goes — adjacent text is one node, empty text is
// none — and never looks below it: an adopted subtree left its own
// constructor normal, a copied one is normalised by the copy.
type content struct {
	parent *dom.Node
	// list, when parent is nil, is the content: attribute nodes, then
	// children (add lets no attribute in after a child).
	list []*dom.Node
	text *dom.Node // the last child, if it is a text node made here
	// began is set by the first child item, even one that leaves no node
	// behind (empty text): from then on an attribute is an error.
	began bool
	// Tree nodes (not text, not attributes: those go in by value) taken
	// as they are and copied, for the profiler.
	adopted, copied int64
}

// add appends an evaluated sequence: a run of atomics becomes one
// space-separated text node, attribute nodes become attributes (only
// legal before any other content), a document node stands for its
// children, and every other node is adopted if the expression is fresh
// and the node still parentless, else deep-copied. The parent test is
// what keeps a wrong or stale annotation from ever taking a node out of
// a tree: at worst a node that is attached — to the page, or since a
// moment ago to this parent — is copied as before.
func (c *content) add(s xdm.Sequence, fresh bool) error {
	if c.parent != nil && len(s) > 1 {
		c.parent.GrowChildren(childrenOf(s))
	}
	for i := 0; i < len(s); i++ {
		n, ok := xdm.IsNode(s[i])
		if !ok {
			j := i + 1
			for j < len(s) {
				if _, isNode := xdm.IsNode(s[j]); isNode {
					break
				}
				j++
			}
			if err := c.addText(joinAtomized(s[i:j])); err != nil {
				return err
			}
			i = j - 1
			continue
		}
		var err error
		switch n.Type {
		case dom.AttributeNode:
			if c.began {
				return fmt.Errorf("xquery: attribute %s constructed after element content", n.Name)
			}
			err = c.addAttr(n.Name, n.Data)
		case dom.DocumentNode:
			for _, k := range n.Children() {
				if err = c.addNode(k, fresh); err != nil {
					break
				}
			}
		default:
			err = c.addNode(n, fresh)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// childrenOf is the most children add makes of s: one per node, a
// document's children for a document, none for an attribute and one
// text node per run of atomics.
func childrenOf(s xdm.Sequence) int {
	k, atomics := 0, false
	for _, it := range s {
		n, ok := xdm.IsNode(it)
		switch {
		case !ok:
			if !atomics {
				k++
			}
			atomics = true
			continue
		case n.Type == dom.DocumentNode:
			k += len(n.Children())
		case n.Type != dom.AttributeNode:
			k++
		}
		atomics = false
	}
	return k
}

func (c *content) addAttr(name dom.QName, value string) error {
	if el := c.parent; el != nil && el.Type == dom.ElementNode {
		if el.AttrNode(name) != nil {
			return fmt.Errorf("xquery: duplicate attribute %s", name)
		}
		el.SetAttr(name, value)
		return nil
	}
	// No element to hold it: the attribute goes on the list, which so far
	// holds attributes only. (A document has no attributes either: the
	// ones it is given are checked like an element's and go nowhere.)
	for _, a := range c.list {
		if a.Name.Matches(name) {
			return fmt.Errorf("xquery: duplicate attribute %s", name)
		}
	}
	c.list = append(c.list, dom.NewAttr(name, value))
	return nil
}

// addText appends character data, merging it into a preceding text
// child. Text always goes in by value, so the node that grows here is
// one this level made.
func (c *content) addText(data string) error {
	c.began = true
	if data == "" {
		return nil
	}
	if c.text != nil {
		c.text.SetData(c.text.Data + data)
		return nil
	}
	t := dom.NewText(data)
	if err := c.addChild(t); err != nil {
		return err
	}
	c.text = t
	return nil
}

func (c *content) addNode(n *dom.Node, fresh bool) error {
	if n.Type == dom.TextNode {
		return c.addText(n.Data)
	}
	c.began = true
	if fresh && n.Parent() == nil {
		c.adopted++
	} else {
		n = n.CloneNormalized()
		c.copied++
	}
	return c.addChild(n)
}

func (c *content) addChild(n *dom.Node) error {
	c.text = nil
	if c.parent == nil {
		c.list = append(c.list, n)
		return nil
	}
	return c.parent.AppendChild(n)
}

// count credits what this level adopted and copied to the profiler,
// under the kind of expression that built it.
func (c *content) count(p *Profiler, kind string) {
	if p != nil {
		p.AddContent(kind+".adopted", c.adopted)
		p.AddContent(kind+".copied", c.copied)
	}
}

func (ctx *Context) constructElement(e ast.DirElem) (*dom.Node, error) {
	el := dom.NewElement(e.Name)
	var buf [4]dom.AttrSpec // most elements have fewer: no allocation
	attrs := buf[:0]
	for _, a := range e.Attrs {
		val, err := ctx.attrValue(a.Pieces)
		if err != nil {
			return nil, err
		}
		for _, seen := range attrs {
			if seen.Name.Matches(a.Name) {
				return nil, fmt.Errorf("xquery: duplicate attribute %s", a.Name)
			}
		}
		attrs = append(attrs, dom.AttrSpec{Name: a.Name, Value: val})
	}
	el.AdoptAttrs(attrs)
	c := content{parent: el}
	for i, ce := range e.Content {
		if lit, ok := ce.(ast.StringLit); ok {
			if err := c.addText(lit.Val); err != nil {
				return nil, err
			}
			continue
		}
		s, err := ctx.Eval(ce)
		if err != nil {
			return nil, err
		}
		if err := c.add(s, e.AdoptContent(i)); err != nil {
			return nil, err
		}
	}
	c.count(ctx.Profiler, "DirElem")
	return el, nil
}

// attrValue concatenates the pieces of an attribute value template:
// literal runs verbatim, enclosed expressions atomized and
// space-joined.
func (ctx *Context) attrValue(pieces []ast.Expr) (string, error) {
	if len(pieces) == 1 {
		return ctx.attrPiece(pieces[0])
	}
	var b strings.Builder
	for _, piece := range pieces {
		s, err := ctx.attrPiece(piece)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func (ctx *Context) attrPiece(piece ast.Expr) (string, error) {
	if lit, ok := piece.(ast.StringLit); ok {
		return lit.Val, nil
	}
	s, err := ctx.Eval(piece)
	if err != nil {
		return "", err
	}
	return joinAtomized(s), nil
}

func (ctx *Context) evalCompConstructor(x ast.CompConstructor) (xdm.Sequence, error) {
	val := xdm.Sequence(nil)
	if x.Content != nil {
		var err error
		val, err = ctx.Eval(x.Content)
		if err != nil {
			return nil, err
		}
	}
	switch x.Kind {
	case xdm.TElementNode:
		name, err := ctx.constructorName(x)
		if err != nil {
			return nil, err
		}
		el := dom.NewElement(name)
		c := content{parent: el}
		if err := c.add(val, x.Adopt); err != nil {
			return nil, err
		}
		c.count(ctx.Profiler, "CompConstructor")
		return xdm.Singleton(xdm.NewNode(el)), nil
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
	case xdm.TDocumentNode:
		doc := dom.NewDocument()
		c := content{parent: doc}
		if err := c.add(val, x.Adopt); err != nil {
			return nil, err
		}
		c.count(ctx.Profiler, "CompConstructor")
		return xdm.Singleton(xdm.NewNode(doc)), nil
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
