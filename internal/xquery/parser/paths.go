package parser

import (
	"math"
	"strconv"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/lexer"
)

// kindTestNames are the names that open a kind test (and therefore can
// never be function names).
var kindTestNames = map[string]bool{
	"node": true, "text": true, "comment": true, "element": true,
	"attribute": true, "document-node": true,
	"processing-instruction": true, "item": true, "empty-sequence": true,
}

// nonFunctionNames may not be used as unprefixed function names.
var nonFunctionNames = map[string]bool{
	"if": true, "typeswitch": true, "node": true, "text": true,
	"comment": true, "element": true, "attribute": true,
	"document-node": true, "processing-instruction": true, "item": true,
	"empty-sequence": true,
}

func (p *Parser) parsePath() ast.Expr {
	t := p.peek()
	switch {
	case t.IsSym("/"):
		p.next()
		path := ast.Path{Absolute: true}
		if p.startsStep() {
			p.parseRelativeInto(&path)
		}
		return path
	case t.IsSym("//"):
		p.next()
		path := ast.Path{Absolute: true}
		path.Steps = append(path.Steps, anyNodeDescOrSelf())
		if !p.startsStep() {
			p.fail(`"//" must be followed by a path step`)
		}
		p.parseRelativeInto(&path)
		return path
	default:
		path := ast.Path{}
		p.parseRelativeInto(&path)
		// A single filter step with no predicates is just its primary.
		if len(path.Steps) == 1 && path.Steps[0].Primary != nil && len(path.Steps[0].Preds) == 0 {
			return path.Steps[0].Primary
		}
		return path
	}
}

func (p *Parser) parseRelativeInto(path *ast.Path) {
	path.Steps = append(path.Steps, p.parseStep())
	for {
		t := p.peek()
		switch {
		case t.IsSym("/"):
			p.next()
			path.Steps = append(path.Steps, p.parseStep())
		case t.IsSym("//"):
			p.next()
			path.Steps = append(path.Steps, anyNodeDescOrSelf())
			path.Steps = append(path.Steps, p.parseStep())
		default:
			return
		}
	}
}

func anyNodeDescOrSelf() ast.Step {
	return ast.Step{Axis: ast.AxisDescendantOrSelf, Test: anyNodeTest()}
}

func anyNodeTest() ast.NodeTest { return ast.NodeTest{AnyNode: true} }

// startsComputedConstructor reports whether the upcoming tokens begin a
// computed constructor, ordered/unordered expression or validate
// expression — word-led primaries that would otherwise parse as child
// name tests.
func (p *Parser) startsComputedConstructor() bool {
	t := p.peek()
	if t.Kind != lexer.Name || t.Prefix != "" {
		return false
	}
	n1 := p.peekAt(1)
	switch t.Local {
	case "text", "comment", "document", "ordered", "unordered":
		return n1.IsSym("{")
	case "validate":
		return n1.IsSym("{") || n1.IsName("lax") || n1.IsName("strict")
	case "element", "attribute", "processing-instruction":
		if n1.IsSym("{") {
			return true
		}
		return n1.Kind == lexer.Name && p.peekAt(2).IsSym("{")
	default:
		return false
	}
}

// startsStep reports whether the next token can begin a path step or
// primary expression (used to decide whether "/" is the whole path).
func (p *Parser) startsStep() bool {
	t := p.peek()
	switch t.Kind {
	case lexer.Name, lexer.Str, lexer.Int, lexer.Dec, lexer.Dbl:
		return true
	case lexer.Sym:
		switch t.Text {
		case "$", "(", ".", "..", "@", "*", "<":
			return true
		}
	}
	return false
}

func (p *Parser) parseStep() ast.Step {
	t := p.peek()
	// Reverse/forward abbreviations.
	if t.IsSym("..") {
		p.next()
		return p.withPreds(ast.Step{Axis: ast.AxisParent, Test: anyNodeTest()})
	}
	if t.IsSym("@") {
		p.next()
		test := p.parseNodeTest(ast.AxisAttribute)
		return p.withPreds(ast.Step{Axis: ast.AxisAttribute, Test: test})
	}
	// Explicit axis "name::".
	if t.Kind == lexer.Name && t.Prefix == "" && p.peekAt(1).IsSym("::") {
		axis, ok := axisByName(t.Local)
		if !ok {
			p.failTok(t, "unknown axis %q", t.Local)
		}
		p.next()
		p.next()
		test := p.parseNodeTest(axis)
		return p.withPreds(ast.Step{Axis: axis, Test: test})
	}
	// Kind test at step position → axis step on child (or attribute for
	// attribute() tests).
	if t.Kind == lexer.Name && t.Prefix == "" && kindTestNames[t.Local] &&
		p.peekAt(1).IsSym("(") && t.Local != "item" && t.Local != "empty-sequence" {
		test := p.parseKindTest()
		axis := ast.AxisChild
		if test.Kind == xdm.TAttributeNode {
			axis = ast.AxisAttribute
		}
		return p.withPreds(ast.Step{Axis: axis, Test: test})
	}
	// Name test (wildcards included) — but not a function call, computed
	// constructor, or other primary.
	if (t.Kind == lexer.Name && !p.peekAt(1).IsSym("(") && !p.startsComputedConstructor()) || t.IsSym("*") {
		test := p.parseNodeTest(ast.AxisChild)
		return p.withPreds(ast.Step{Axis: ast.AxisChild, Test: test})
	}
	// Otherwise a filter expression step.
	primary := p.parsePrimary()
	return p.withPreds(ast.Step{Primary: primary})
}

func (p *Parser) withPreds(s ast.Step) ast.Step {
	for p.peek().IsSym("[") {
		p.next()
		s.Preds = append(s.Preds, p.parseExpr())
		p.expectSym("]")
	}
	return s
}

func axisByName(name string) (ast.Axis, bool) {
	switch name {
	case "child":
		return ast.AxisChild, true
	case "descendant":
		return ast.AxisDescendant, true
	case "attribute":
		return ast.AxisAttribute, true
	case "self":
		return ast.AxisSelf, true
	case "descendant-or-self":
		return ast.AxisDescendantOrSelf, true
	case "following-sibling":
		return ast.AxisFollowingSibling, true
	case "following":
		return ast.AxisFollowing, true
	case "parent":
		return ast.AxisParent, true
	case "ancestor":
		return ast.AxisAncestor, true
	case "preceding-sibling":
		return ast.AxisPrecedingSibling, true
	case "preceding":
		return ast.AxisPreceding, true
	case "ancestor-or-self":
		return ast.AxisAncestorOrSelf, true
	default:
		return 0, false
	}
}

// parseNodeTest parses a name test or kind test for the given axis.
func (p *Parser) parseNodeTest(axis ast.Axis) ast.NodeTest {
	t := p.peek()
	if t.Kind == lexer.Name && t.Prefix == "" && kindTestNames[t.Local] && p.peekAt(1).IsSym("(") {
		return p.parseKindTest()
	}
	if t.IsSym("*") {
		p.next()
		return ast.NodeTest{IsName: true, AnySpace: true, Name: dom.Name("*")}
	}
	if t.Kind != lexer.Name {
		p.failTok(t, "expected a node test, found %s", t)
	}
	p.next()
	switch {
	case t.Prefix == "*": // *:local
		return ast.NodeTest{IsName: true, AnySpace: true, Name: dom.Name(t.Local)}
	case t.Local == "*": // prefix:*
		uri, ok := p.ns[t.Prefix]
		if !ok {
			p.failTok(t, "undeclared namespace prefix %q", t.Prefix)
		}
		return ast.NodeTest{IsName: true, Name: dom.QName{Space: uri, Prefix: t.Prefix, Local: "*"}}
	default:
		kind := "attribute"
		if axis != ast.AxisAttribute {
			kind = "element"
		}
		return ast.NodeTest{IsName: true, Name: p.resolve(t, kind)}
	}
}

// parseKindTest parses node()/text()/element(...)/... tests.
func (p *Parser) parseKindTest() ast.NodeTest {
	t := p.next() // the kind name
	p.expectSym("(")
	test := ast.NodeTest{}
	switch t.Local {
	case "node":
		test = anyNodeTest()
	case "text":
		test.Kind = xdm.TTextNode
	case "comment":
		test.Kind = xdm.TCommentNode
	case "document-node":
		test.Kind = xdm.TDocumentNode
		// Optional element(...) inside: parse and discard the name
		// constraint at document level (we only check the kind).
		if p.peek().IsName("element") {
			p.parseKindTest()
		}
	case "element", "attribute":
		if t.Local == "element" {
			test.Kind = xdm.TElementNode
		} else {
			test.Kind = xdm.TAttributeNode
		}
		if !p.peek().IsSym(")") {
			nt := p.peek()
			if nt.IsSym("*") {
				p.next()
				test.HasName = true
				test.KindName = dom.Name("*")
			} else {
				kind := "element"
				if test.Kind == xdm.TAttributeNode {
					kind = "attribute"
				}
				test.HasName = true
				test.KindName = p.qname(kind)
			}
			// Optional ", TypeName" — parsed and ignored (schemaless).
			if p.eatSym(",") {
				p.next()
				p.eatSym("?")
			}
		}
	case "processing-instruction":
		test.Kind = xdm.TPINode
		if !p.peek().IsSym(")") {
			nt := p.next()
			switch nt.Kind {
			case lexer.Name:
				test.PITarget = nt.Local
			case lexer.Str:
				test.PITarget = nt.Text
			default:
				p.failTok(nt, "expected a PI target, found %s", nt)
			}
		}
	default:
		p.failTok(t, "%q is not a kind test", t.Local)
	}
	p.expectSym(")")
	return test
}

// --- primary expressions -----------------------------------------------------

func (p *Parser) parsePrimary() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case lexer.Str:
		p.next()
		return ast.StringLit{Val: t.Text}
	case lexer.Int:
		p.next()
		return ast.IntLit{Val: t.IntVal}
	case lexer.Dec:
		p.next()
		return ast.DecimalLit{Val: t.Text}
	case lexer.Dbl:
		p.next()
		return ast.DoubleLit{Val: t.FltVal}
	}
	switch {
	case t.IsSym("$"):
		return p.varRef()
	case t.IsSym("("):
		p.next()
		if p.eatSym(")") {
			return ast.SeqExpr{}
		}
		e := p.parseExpr()
		p.expectSym(")")
		return e
	case t.IsSym("."):
		p.next()
		return ast.ContextItem{}
	case t.IsSym("<"):
		return p.parseDirectConstructor()
	}
	if t.Kind == lexer.Name {
		n1 := p.peekAt(1)
		// ordered { } / unordered { }.
		if (t.IsName("ordered") || t.IsName("unordered")) && n1.IsSym("{") {
			p.next()
			p.next()
			e := p.parseExpr()
			p.expectSym("}")
			return ast.Ordered{X: e}
		}
		// validate { } / validate lax|strict { }: transparent.
		if t.IsName("validate") && (n1.IsSym("{") || n1.IsName("lax") || n1.IsName("strict")) {
			p.next()
			p.eatName("lax")
			p.eatName("strict")
			p.expectSym("{")
			e := p.parseExpr()
			p.expectSym("}")
			return ast.Ordered{X: e}
		}
		// Computed constructors.
		if ce, ok := p.tryComputedConstructor(t); ok {
			return ce
		}
		// Function call.
		if n1.IsSym("(") && !(t.Prefix == "" && nonFunctionNames[t.Local]) {
			name := p.qname("function")
			p.expectSym("(")
			var args []ast.Expr
			outer := p.noRange
			p.noRange = false
			if !p.peek().IsSym(")") {
				args = append(args, p.parseExprSingle())
				for p.eatSym(",") {
					args = append(args, p.parseExprSingle())
				}
			}
			p.noRange = outer
			p.expectSym(")")
			return ast.FuncCall{Name: name, Args: args, At: tokPos(t)}
		}
	}
	p.failTok(t, "unexpected %s", t)
	return nil
}

// tryComputedConstructor parses element/attribute/text/comment/document/
// processing-instruction computed constructors.
func (p *Parser) tryComputedConstructor(t lexer.Token) (ast.Expr, bool) {
	if t.Kind != lexer.Name || t.Prefix != "" {
		return nil, false
	}
	n1 := p.peekAt(1)
	switch t.Local {
	case "document", "text", "comment":
		if !n1.IsSym("{") {
			return nil, false
		}
		p.next()
		p.next()
		var kind xdm.Type
		switch t.Local {
		case "document":
			kind = xdm.TDocumentNode
		case "text":
			kind = xdm.TTextNode
		default:
			kind = xdm.TCommentNode
		}
		var content ast.Expr
		if !p.peek().IsSym("}") {
			content = p.parseExpr()
		}
		p.expectSym("}")
		return ast.CompConstructor{Kind: kind, Content: content}, true
	case "element", "attribute", "processing-instruction":
		// name form: element foo {...} | element {expr} {...}
		var kind xdm.Type
		switch t.Local {
		case "element":
			kind = xdm.TElementNode
		case "attribute":
			kind = xdm.TAttributeNode
		default:
			kind = xdm.TPINode
		}
		cc := ast.CompConstructor{Kind: kind}
		switch {
		case n1.Kind == lexer.Name && p.peekAt(2).IsSym("{"):
			p.next()
			nameKind := "element"
			if kind == xdm.TAttributeNode || kind == xdm.TPINode {
				nameKind = "attribute"
			}
			cc.Name = p.qname(nameKind)
		case n1.IsSym("{"):
			p.next()
			p.next()
			cc.NameExpr = p.parseExpr()
			p.expectSym("}")
		default:
			return nil, false
		}
		p.expectSym("{")
		if !p.peek().IsSym("}") {
			cc.Content = p.parseExpr()
		}
		p.expectSym("}")
		return cc, true
	}
	return nil, false
}

// --- sequence types -----------------------------------------------------------

func (p *Parser) parseSequenceType() xdm.SeqType {
	t := p.peek()
	if t.IsName("empty-sequence") && p.peekAt(1).IsSym("(") {
		p.next()
		p.expectSym("(")
		p.expectSym(")")
		return xdm.SeqType{Empty: true}
	}
	item := p.parseItemType()
	st := xdm.SeqType{Item: item}
	n := p.peek()
	switch {
	case n.IsSym("?"):
		p.next()
		st.Occ = xdm.ZeroOrOne
	case n.IsSym("*"):
		p.next()
		st.Occ = xdm.ZeroOrMore
	case n.IsSym("+"):
		p.next()
		st.Occ = xdm.OneOrMore
	}
	return st
}

func (p *Parser) parseItemType() xdm.ItemTest {
	t := p.peek()
	if t.Kind == lexer.Name && t.Prefix == "" && kindTestNames[t.Local] && p.peekAt(1).IsSym("(") {
		if t.Local == "item" {
			p.next()
			p.expectSym("(")
			p.expectSym(")")
			return xdm.ItemTest{AnyItem: true}
		}
		nt := p.parseKindTest()
		if nt.AnyNode {
			return xdm.ItemTest{AnyNode: true}
		}
		if nt.Kind == xdm.TDocumentNode && !nt.HasName {
			return xdm.ItemTest{Kind: xdm.TDocumentNode}
		}
		it := xdm.ItemTest{Kind: nt.Kind}
		if nt.HasName {
			it.HasName = true
			it.KindName = nt.KindName
		}
		return it
	}
	// Atomic type QName.
	tok := p.next()
	if tok.Kind != lexer.Name {
		p.failTok(tok, "expected an item type, found %s", tok)
	}
	at, ok := p.atomicType(tok)
	if !ok {
		p.failTok(tok, "unknown atomic type %s", tok)
	}
	return xdm.ItemTest{Atomic: at}
}

func (p *Parser) atomicType(tok lexer.Token) (xdm.Type, bool) {
	// Accept xs:Name, or unprefixed names for convenience.
	if tok.Prefix != "" {
		uri, ok := p.ns[tok.Prefix]
		if !ok || uri != XSNamespace {
			return 0, false
		}
	}
	if tok.Local == "anyAtomicType" {
		return xdm.TUntypedAtomic, true // closest supertype we model
	}
	return xdm.AtomicTypeByName(tok.Local)
}

func (p *Parser) parseSingleType() (xdm.Type, bool) {
	tok := p.next()
	at, ok := p.atomicType(tok)
	if !ok {
		p.failTok(tok, "unknown atomic type %s", tok)
	}
	optional := p.eatSym("?")
	return at, optional
}

// --- full-text selections -------------------------------------------------------

func (p *Parser) parseFTOr() ast.FTSelection {
	l := p.parseFTAnd()
	for p.peek().IsName("ftor") {
		p.next()
		l = ast.FTOr{L: l, R: p.parseFTAnd()}
	}
	return l
}

func (p *Parser) parseFTAnd() ast.FTSelection {
	l := p.parseFTUnary()
	for p.peek().IsName("ftand") {
		p.next()
		l = ast.FTAnd{L: l, R: p.parseFTUnary()}
	}
	return l
}

func (p *Parser) parseFTUnary() ast.FTSelection {
	if p.eatName("ftnot") {
		return ast.FTNot{X: p.parseFTPrimary()}
	}
	return p.parseFTPrimary()
}

func (p *Parser) parseFTPrimary() ast.FTSelection {
	t := p.peek()
	if t.IsSym("(") {
		p.next()
		sel := p.parseFTOr()
		p.expectSym(")")
		if opts, any := p.parseFTOptions(); any {
			sel = applyFTOptions(sel, opts)
		}
		return sel
	}
	var src ast.Expr
	switch {
	case t.Kind == lexer.Str:
		p.next()
		src = ast.StringLit{Val: t.Text}
	case t.IsSym("{"):
		p.next()
		src = p.parseExpr()
		p.expectSym("}")
	case t.IsSym("$"):
		src = p.varRef()
	default:
		p.failTok(t, "expected a full-text word selection, found %s", t)
	}
	w := ast.FTWords{Source: src, AnyAll: "any"}
	// Optional any/all/phrase option.
	switch {
	case p.eatName("any"):
		p.eatName("word")
		w.AnyAll = "any"
	case p.eatName("all"):
		p.eatName("words")
		w.AnyAll = "all"
	case p.eatName("phrase"):
		w.AnyAll = "phrase"
	}
	w.Opts, _ = p.parseFTOptions()
	return w
}

func (p *Parser) parseFTOptions() (ast.FTOptions, bool) {
	var o ast.FTOptions
	any := false
	for {
		t := p.peek()
		switch {
		case t.IsName("with") && p.peekAt(1).IsName("stemming"):
			p.next()
			p.next()
			o.Stemming = true
			any = true
		case t.IsName("without") && p.peekAt(1).IsName("stemming"):
			p.next()
			p.next()
			o.Stemming = false
			any = true
		case t.IsName("with") && p.peekAt(1).IsName("wildcards"):
			p.next()
			p.next()
			o.Wildcards = true
			any = true
		case t.IsName("without") && p.peekAt(1).IsName("wildcards"):
			p.next()
			p.next()
			o.Wildcards = false
			any = true
		case t.IsName("case") && (p.peekAt(1).IsName("sensitive") || p.peekAt(1).IsName("insensitive")):
			p.next()
			o.CaseSensitive = p.next().Local == "sensitive"
			any = true
		default:
			return o, any
		}
	}
}

func applyFTOptions(sel ast.FTSelection, opts ast.FTOptions) ast.FTSelection {
	switch s := sel.(type) {
	case ast.FTWords:
		s.Opts = mergeFTOptions(s.Opts, opts)
		return s
	case ast.FTAnd:
		return ast.FTAnd{L: applyFTOptions(s.L, opts), R: applyFTOptions(s.R, opts)}
	case ast.FTOr:
		return ast.FTOr{L: applyFTOptions(s.L, opts), R: applyFTOptions(s.R, opts)}
	case ast.FTNot:
		return ast.FTNot{X: applyFTOptions(s.X, opts)}
	default:
		return sel
	}
}

func mergeFTOptions(inner, outer ast.FTOptions) ast.FTOptions {
	return ast.FTOptions{
		Stemming:      inner.Stemming || outer.Stemming,
		CaseSensitive: inner.CaseSensitive || outer.CaseSensitive,
		Wildcards:     inner.Wildcards || outer.Wildcards,
	}
}

// parseNumericLiteralValue is a helper for the webservice port syntax.
func (p *Parser) parseNumericLiteralValue() int {
	t := p.next()
	if t.Kind == lexer.Int {
		return int(t.IntVal)
	}
	if t.Kind == lexer.Dec || t.Kind == lexer.Dbl {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err == nil && f == math.Trunc(f) {
			return int(f)
		}
	}
	p.failTok(t, "expected an integer, found %s", t)
	return 0
}
