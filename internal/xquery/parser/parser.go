// Package parser implements a recursive-descent parser for the extended
// XQuery dialect: XQuery 1.0 with the Update Facility, the Scripting
// Extension subset, full-text ftcontains, and the paper's browser
// grammar extensions (§4.3 events, §4.5 CSS). Keyword forms descend;
// the binary and postfix operators are one operator table read by one
// precedence-climbing loop. XQuery has no reserved words, so keyword
// decisions are made by grammatical position with bounded lookahead,
// exactly as the W3C grammar prescribes.
package parser

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/lexer"
)

// Well-known namespace URIs preset in the static context.
const (
	FnNamespace      = "http://www.w3.org/2005/xpath-functions"
	XSNamespace      = "http://www.w3.org/2001/XMLSchema"
	LocalNamespace   = "http://www.w3.org/2005/xquery-local-functions"
	BrowserNamespace = "http://www.example.com/browser" // paper §4.2
	XMLNamespace     = "http://www.w3.org/XML/1998/namespace"
	// FTNamespace hosts the full-text helper functions (ft:score,
	// ft:tokenize); KWICNamespace hosts keyword-in-context snippets.
	FTNamespace   = "http://www.example.com/fulltext"
	KWICNamespace = "http://www.example.com/kwic"
)

// Error is a syntax error with line/column information (both 1-based;
// Col may be 0 when unknown).
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xquery: syntax error at line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parser holds the parsing state.
type Parser struct {
	lx            *lexer.Lexer
	ns            map[string]string
	defaultElemNS string
	defaultFnNS   string
	// noRange suppresses the "to" range operator while parsing the
	// target of "set style ... of T to V", whose grammar reuses "to".
	// Brackets and argument lists inside the target turn it off again
	// (parseExpr, parseBlock, a function call's arguments).
	noRange bool
	// depth guards against pathologically nested input blowing the
	// stack: recursive descent fails cleanly past maxParseDepth.
	depth int
	// sc resolves variable names (scope.go).
	sc scopes
}

// maxParseDepth bounds expression nesting.
const maxParseDepth = 3000

// ParseModule parses a complete main or library module.
func ParseModule(src string) (m *ast.Module, err error) {
	p := newParser(src)
	defer p.recoverTo(&err)
	m = p.parseModule()
	m.NumVars = p.sc.last
	return m, nil
}

// ParseExpr parses a standalone expression (no prolog) — the XPath
// subset entry point used by the JavaScript-baseline document.evaluate.
func ParseExpr(src string) (e ast.Expr, err error) {
	p := newParser(src)
	defer p.recoverTo(&err)
	e = p.parseExpr()
	p.expectEOF()
	return e, nil
}

func newParser(src string) *Parser {
	return &Parser{
		lx: lexer.New(src),
		ns: map[string]string{
			"xs":      XSNamespace,
			"fn":      FnNamespace,
			"local":   LocalNamespace,
			"browser": BrowserNamespace,
			"xml":     XMLNamespace,
			"ft":      FTNamespace,
			"kwic":    KWICNamespace,
		},
		defaultFnNS: FnNamespace,
	}
}

func (p *Parser) recoverTo(err *error) {
	if r := recover(); r != nil {
		if pe, ok := r.(*Error); ok {
			*err = pe
			return
		}
		// Any other panic is a parser bug (index out of range, nil
		// dereference, ...). Re-panicking would tear down whatever
		// serving goroutine called Parse, so wrap it as a positioned
		// parse error at the token the parser was stuck on instead.
		t := p.lx.Peek()
		*err = &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf("internal error: %v", r)}
	}
}

func (p *Parser) failAt(line, col int, format string, args ...any) {
	panic(&Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

// failTok fails at a token's position.
func (p *Parser) failTok(t lexer.Token, format string, args ...any) {
	p.failAt(t.Line, t.Col, format, args...)
}

func (p *Parser) fail(format string, args ...any) {
	p.failTok(p.lx.Peek(), format, args...)
}

// tokPos converts a token's position into an AST source position.
func tokPos(t lexer.Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

// --- token helpers --------------------------------------------------------

func (p *Parser) next() lexer.Token {
	t := p.lx.Next()
	if err := p.lx.Err(); err != nil {
		le := err.(*lexer.Error)
		p.failAt(le.Line, le.Col, "%s", le.Msg)
	}
	return t
}

func (p *Parser) peek() lexer.Token        { return p.lx.Peek() }
func (p *Parser) peekAt(k int) lexer.Token { return p.lx.PeekAt(k) }

func (p *Parser) expectSym(s string) lexer.Token {
	t := p.next()
	if !t.IsSym(s) {
		p.failTok(t, "expected %q, found %s", s, t)
	}
	return t
}

func (p *Parser) expectName(word string) {
	t := p.next()
	if !t.IsName(word) {
		p.failTok(t, "expected %q, found %s", word, t)
	}
}

func (p *Parser) expectEOF() {
	if t := p.peek(); t.Kind != lexer.EOF {
		p.failTok(t, "unexpected %s after end of expression", t)
	}
}

// eatSym consumes the symbol if present.
func (p *Parser) eatSym(s string) bool {
	if p.peek().IsSym(s) {
		p.next()
		return true
	}
	return false
}

// eatName consumes the unprefixed name if present.
func (p *Parser) eatName(w string) bool {
	if p.peek().IsName(w) {
		p.next()
		return true
	}
	return false
}

// --- QName resolution -------------------------------------------------------

func (p *Parser) resolve(t lexer.Token, kind string) dom.QName {
	if t.Kind != lexer.Name {
		p.failTok(t, "expected a name, found %s", t)
	}
	if t.Prefix == "" {
		switch kind {
		case "element":
			return dom.QName{Space: p.defaultElemNS, Local: t.Local}
		case "function":
			return dom.QName{Space: p.defaultFnNS, Local: t.Local}
		default: // variable, attribute: no namespace
			return dom.Name(t.Local)
		}
	}
	uri, ok := p.ns[t.Prefix]
	if !ok {
		p.failTok(t, "undeclared namespace prefix %q", t.Prefix)
	}
	return dom.QName{Space: uri, Prefix: t.Prefix, Local: t.Local}
}

func (p *Parser) qname(kind string) dom.QName {
	return p.resolve(p.next(), kind)
}

// varName parses "$" QName.
func (p *Parser) varName() dom.QName {
	p.expectSym("$")
	return p.qname("variable")
}

// varRef parses "$" QName as a reference to the binding it means.
func (p *Parser) varRef() ast.VarRef {
	at := tokPos(p.peek())
	name := p.varName()
	return ast.VarRef{Name: name, At: at, ID: p.sc.resolve(name)}
}

// assign parses the ":= ExprSingle" of an assignment to v, which stood
// at t.
func (p *Parser) assign(v dom.QName, t lexer.Token) ast.Expr {
	id := p.sc.resolve(v)
	p.expectSym(":=")
	return ast.Assign{Var: v, ID: id, Val: p.parseExprSingle(), At: tokPos(t)}
}

// --- expressions ----------------------------------------------------------

// parseExpr parses the comma operator level. Every ( ), [ ] and { }
// but a block's parses its contents here, so "to" is the range
// operator again inside them (see noRange).
func (p *Parser) parseExpr() ast.Expr {
	outer := p.noRange
	p.noRange = false
	e := p.parseExprSingle()
	if p.peek().IsSym(",") {
		items := []ast.Expr{e}
		for p.eatSym(",") {
			items = append(items, p.parseExprSingle())
		}
		e = ast.SeqExpr{Items: items}
	}
	p.noRange = outer
	return e
}

// parseExprSingle dispatches on the leading keywords of the composite
// expressions, falling through to the operator precedence chain.
func (p *Parser) parseExprSingle() ast.Expr {
	if p.depth++; p.depth > maxParseDepth {
		p.fail("expression nesting exceeds %d levels", maxParseDepth)
	}
	defer func() { p.depth-- }()
	t := p.peek()
	if t.Kind == lexer.Name && t.Prefix == "" {
		n1 := p.peekAt(1)
		switch t.Local {
		case "for", "let":
			if n1.IsSym("$") {
				return p.parseFLWOR()
			}
		case "some", "every":
			if n1.IsSym("$") {
				return p.parseQuantified()
			}
		case "typeswitch":
			if n1.IsSym("(") {
				return p.parseTypeswitch()
			}
		case "if":
			if n1.IsSym("(") {
				return p.parseIf()
			}
		case "insert":
			if n1.IsName("node") || n1.IsName("nodes") {
				return p.parseInsert()
			}
		case "delete":
			if n1.IsName("node") || n1.IsName("nodes") {
				p.next()
				p.next()
				return ast.Delete{Target: p.parseExprSingle(), At: tokPos(t)}
			}
		case "replace":
			if n1.IsName("node") || n1.IsName("value") {
				return p.parseReplace()
			}
		case "rename":
			if n1.IsName("node") {
				p.next()
				p.next()
				target := p.parseExprSingle()
				p.expectName("as")
				return ast.Rename{Target: target, NewName: p.parseExprSingle(), At: tokPos(t)}
			}
		case "copy":
			if n1.IsSym("$") {
				return p.parseTransform()
			}
		case "do":
			// The scripting drafts (and paper §4.4) prefix updating
			// expressions with "do"; it is transparent for us.
			if n1.IsName("insert") || n1.IsName("delete") ||
				n1.IsName("replace") || n1.IsName("rename") {
				p.next()
				return p.parseExprSingle()
			}
		case "block":
			if n1.IsSym("{") {
				p.next()
				p.next()
				return p.parseBlock()
			}
		case "declare":
			if n1.IsName("variable") {
				return p.parseBlockDecl()
			}
		case "set":
			if n1.IsName("style") {
				p.next()
				p.next()
				prop := p.parseExprSingle()
				p.expectName("of")
				outer := p.noRange
				p.noRange = true
				target := p.parseExprSingle()
				p.noRange = outer
				p.expectName("to")
				return ast.SetStyle{Prop: prop, Target: target, Value: p.parseExprSingle(), At: tokPos(t)}
			}
			if n1.IsSym("$") {
				p.next()
				return p.assign(p.varName(), t)
			}
		case "get":
			if n1.IsName("style") {
				p.next()
				p.next()
				prop := p.parseExprSingle()
				p.expectName("of")
				return ast.GetStyle{Prop: prop, Target: p.parseExprSingle(), At: tokPos(t)}
			}
		case "while":
			if n1.IsSym("(") {
				p.next()
				p.expectSym("(")
				cond := p.parseExpr()
				p.expectSym(")")
				return ast.While{Cond: cond, Body: p.parseExprSingle(), At: tokPos(t)}
			}
		case "exit":
			if n1.IsName("with") || n1.IsName("returning") {
				p.next()
				p.next()
				return ast.Exit{With: p.parseExprSingle(), At: tokPos(t)}
			}
		case "break", "continue":
			// Bare loop-control statements (§3.3). Only when a
			// statement/branch terminator follows — "break" is still a
			// legal path step ("break/x") since XQuery has no reserved
			// words.
			if n1.IsSym(";") || n1.IsSym("}") || n1.IsSym(")") || n1.IsSym(",") ||
				n1.IsName("else") || n1.Kind == lexer.EOF {
				p.next()
				if t.Local == "break" {
					return ast.Break{}
				}
				return ast.Continue{}
			}
		case "on":
			if n1.IsName("event") {
				return p.parseEventExpr()
			}
		case "trigger":
			if n1.IsName("event") {
				p.next()
				p.next()
				ev := p.parseExprSingle()
				p.expectName("at")
				return ast.EventTrigger{Event: ev, Target: p.parseExprSingle(), At: tokPos(t)}
			}
		}
	}
	// Scripting assignment "$x := e".
	if t.IsSym("$") && p.peekAt(1).Kind == lexer.Name && p.peekAt(2).IsSym(":=") {
		return p.assign(p.varName(), t)
	}
	// Bare block "{ ... }" (paper §3.3 writes blocks without a keyword).
	if t.IsSym("{") {
		p.next()
		return p.parseBlock()
	}
	return p.parseOperators(levelOr)
}

func (p *Parser) parseFLWOR() ast.Expr {
	var f ast.FLWOR
	defer p.sc.pop(p.sc.mark())
	for t := p.peek(); (t.IsName("for") || t.IsName("let")) && p.peekAt(1).IsSym("$"); t = p.peek() {
		p.next()
		f.Clauses = append(f.Clauses, p.parseBindings(t.Local)...)
	}
	if len(f.Clauses) == 0 {
		p.fail("FLWOR expression needs at least one for/let clause")
	}
	if p.eatName("where") {
		f.Where = p.parseExprSingle()
	}
	if p.peek().IsName("stable") || p.peek().IsName("order") {
		p.eatName("stable")
		p.expectName("order")
		p.expectName("by")
		for {
			spec := ast.OrderSpec{Key: p.parseExprSingle()}
			if p.eatName("descending") {
				spec.Descending = true
			} else {
				p.eatName("ascending")
			}
			if p.eatName("empty") {
				spec.EmptySet = true
				if p.eatName("least") {
					spec.EmptyLeast = true
				} else {
					p.expectName("greatest")
				}
			}
			f.OrderBy = append(f.OrderBy, spec)
			if !p.eatSym(",") {
				break
			}
		}
	}
	p.expectName("return")
	f.Return = p.parseExprSingle()
	return f
}

func (p *Parser) parseQuantified() ast.Expr {
	kw := p.next().Local
	defer p.sc.pop(p.sc.mark())
	q := ast.Quantified{Every: kw == "every", Vars: p.parseBindings(kw)}
	p.expectName("satisfies")
	q.Satisfies = p.parseExprSingle()
	return q
}

// parseBindings reads the comma-separated bindings after the keyword
// of a for, let, some, every or copy clause:
// "$v (as T)? (at $p)? in|:= ExprSingle". Only a FLWOR's for takes
// "at", copy takes no type, and for, some and every bind with "in".
// Each binding's variables come into scope after its expression.
func (p *Parser) parseBindings(keyword string) []ast.Clause {
	iterates := keyword != "let" && keyword != "copy"
	var cls []ast.Clause
	for {
		cl := ast.Clause{For: iterates, At: tokPos(p.peek())}
		cl.Var = p.varName()
		if keyword != "copy" && p.eatName("as") {
			st := p.parseSequenceType()
			cl.Type = &st
		}
		if keyword == "for" && p.eatName("at") {
			cl.PosVar = p.varName()
		}
		if iterates {
			p.expectName("in")
		} else {
			p.expectSym(":=")
		}
		cl.In = p.parseExprSingle()
		cl.ID = p.sc.declare(cl.Var)
		if !cl.PosVar.IsZero() {
			cl.PosID = p.sc.declare(cl.PosVar)
		}
		cls = append(cls, cl)
		if !p.eatSym(",") {
			return cls
		}
	}
}

func (p *Parser) parseTypeswitch() ast.Expr {
	tt := p.next() // typeswitch
	p.expectSym("(")
	ts := ast.Typeswitch{Operand: p.parseExpr(), At: tokPos(tt)}
	p.expectSym(")")
	for p.peek().IsName("case") {
		ct := p.next()
		var c ast.TypeswitchCase
		c.At = tokPos(ct)
		if p.peek().IsSym("$") {
			c.Var = p.varName()
			p.expectName("as")
		}
		c.Type = p.parseSequenceType()
		p.expectName("return")
		c.ID, c.Body = p.branch(c.Var)
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		p.fail("typeswitch needs at least one case")
	}
	p.expectName("default")
	if p.peek().IsSym("$") {
		ts.DefaultVar = p.varName()
	}
	p.expectName("return")
	ts.DefaultID, ts.Default = p.branch(ts.DefaultVar)
	return ts
}

// branch parses the return expression of a typeswitch branch with its
// variable v, unless it is zero, in scope.
func (p *Parser) branch(v dom.QName) (id ast.VarID, body ast.Expr) {
	defer p.sc.pop(p.sc.mark())
	if !v.IsZero() {
		id = p.sc.declare(v)
	}
	return id, p.parseExprSingle()
}

func (p *Parser) parseIf() ast.Expr {
	it := p.next() // if
	p.expectSym("(")
	cond := p.parseExpr()
	p.expectSym(")")
	p.expectName("then")
	then := p.parseExprSingle()
	p.expectName("else")
	return ast.If{Cond: cond, Then: then, Else: p.parseExprSingle(), At: tokPos(it)}
}

func (p *Parser) parseInsert() ast.Expr {
	it := p.next() // insert
	p.next()       // node(s)
	src := p.parseExprSingle()
	var pos ast.InsertPos
	switch {
	case p.eatName("into"):
		pos = ast.Into
	case p.eatName("as"):
		switch {
		case p.eatName("first"):
			pos = ast.IntoFirst
		case p.eatName("last"):
			pos = ast.IntoLast
		default:
			p.fail(`expected "first" or "last" after "as"`)
		}
		p.expectName("into")
	case p.eatName("before"):
		pos = ast.Before
	case p.eatName("after"):
		pos = ast.After
	default:
		p.fail(`expected "into", "as first into", "as last into", "before" or "after"`)
	}
	target := p.parseExprSingle()
	// The paper's §4.2.1 example writes "into $d/html/body as first";
	// accept the postfix placement as well as the spec's prefix form.
	if pos == ast.Into && p.peek().IsName("as") &&
		(p.peekAt(1).IsName("first") || p.peekAt(1).IsName("last")) {
		p.next()
		if p.next().Local == "first" {
			pos = ast.IntoFirst
		} else {
			pos = ast.IntoLast
		}
	}
	return ast.Insert{Source: src, Target: target, Pos: pos, At: tokPos(it)}
}

func (p *Parser) parseReplace() ast.Expr {
	rt := p.next() // replace
	r := ast.Replace{At: tokPos(rt)}
	if p.eatName("value") {
		p.expectName("of")
		r.ValueOf = true
	}
	p.expectName("node")
	r.Target = p.parseExprSingle()
	p.expectName("with")
	r.With = p.parseExprSingle()
	return r
}

func (p *Parser) parseTransform() ast.Expr {
	cpt := p.next() // copy
	defer p.sc.pop(p.sc.mark())
	tr := ast.Transform{At: tokPos(cpt), Bindings: p.parseBindings("copy")}
	p.expectName("modify")
	tr.Modify = p.parseExprSingle()
	p.expectName("return")
	tr.Return = p.parseExprSingle()
	return tr
}

// parseBlock parses the statements of a block after the opening "{".
func (p *Parser) parseBlock() ast.Expr {
	outer := p.noRange
	p.noRange = false
	defer p.sc.pop(p.sc.mark())
	var stmts []ast.Expr
	for {
		if p.peek().IsSym("}") {
			p.next()
			break
		}
		if p.peek().Kind == lexer.EOF {
			p.fail("unterminated block")
		}
		stmts = append(stmts, p.parseExprSingle())
		if !p.eatSym(";") {
			p.expectSym("}")
			break
		}
	}
	p.noRange = outer
	return ast.Block{Stmts: stmts}
}

func (p *Parser) parseBlockDecl() ast.Expr {
	dt := p.next() // declare
	p.next()       // variable
	d := ast.BlockDecl{Var: p.varName(), At: tokPos(dt)}
	if p.peek().IsName("as") {
		p.next()
		st := p.parseSequenceType()
		d.Type = &st
	}
	// The paper writes both ":=" and "=" in block declarations.
	if p.eatSym(":=") || p.eatSym("=") {
		d.Init = p.parseExprSingle()
	}
	d.ID = p.sc.declare(d.Var)
	return d
}

func (p *Parser) parseEventExpr() ast.Expr {
	ot := p.next() // on
	p.next()       // event
	ev := p.parseExprSingle()
	behind := false
	switch {
	case p.eatName("at"):
	case p.eatName("behind"):
		behind = true
	default:
		p.fail(`expected "at" or "behind" in event expression`)
	}
	target := p.parseExprSingle()
	switch {
	case p.eatName("attach"):
		p.expectName("listener")
		return ast.EventAttach{Event: ev, Target: target, Behind: behind,
			Listener: p.qname("function"), At: tokPos(ot)}
	case p.eatName("detach"):
		if behind {
			p.fail(`"behind" cannot be used with detach`)
		}
		p.expectName("listener")
		return ast.EventDetach{Event: ev, Target: target, Listener: p.qname("function"), At: tokPos(ot)}
	default:
		p.fail(`expected "attach listener" or "detach listener"`)
		return nil
	}
}

// --- operators --------------------------------------------------------------

// Operator levels, loosest first. An operator's right operand holds
// only operators of tighter levels; the operands of the tightest level
// are parseUnary's.
const (
	levelOr = iota + 1
	levelAnd
	levelCompare
	levelFTContains
	levelRange
	levelAdditive
	levelMultiplicative
	levelUnion
	levelIntersect
	levelInstanceOf
	levelTreat
	levelCastable
	levelCast
)

// operator is one row of the operator table: its level, how the tree
// spells it, the comparison kind of a comparison, and the word that
// must follow a two-word operator ("instance of", "cast as").
type operator struct {
	level int
	op    string
	kind  ast.CompareKind
	then  string
}

// operators maps a symbol, or an unprefixed name after a complete
// operand, to its operator. XQuery has no reserved words: "div" or
// "to" are operators here only because an operand precedes them.
var operators = map[string]operator{
	"or":         {level: levelOr, op: "or"},
	"and":        {level: levelAnd, op: "and"},
	"=":          {level: levelCompare, op: "=", kind: ast.GeneralComp},
	"!=":         {level: levelCompare, op: "!=", kind: ast.GeneralComp},
	"<":          {level: levelCompare, op: "<", kind: ast.GeneralComp},
	"<=":         {level: levelCompare, op: "<=", kind: ast.GeneralComp},
	">":          {level: levelCompare, op: ">", kind: ast.GeneralComp},
	">=":         {level: levelCompare, op: ">=", kind: ast.GeneralComp},
	"eq":         {level: levelCompare, op: "eq", kind: ast.ValueComp},
	"ne":         {level: levelCompare, op: "ne", kind: ast.ValueComp},
	"lt":         {level: levelCompare, op: "lt", kind: ast.ValueComp},
	"le":         {level: levelCompare, op: "le", kind: ast.ValueComp},
	"gt":         {level: levelCompare, op: "gt", kind: ast.ValueComp},
	"ge":         {level: levelCompare, op: "ge", kind: ast.ValueComp},
	"is":         {level: levelCompare, op: "is", kind: ast.NodeComp},
	"<<":         {level: levelCompare, op: "<<", kind: ast.NodeComp},
	">>":         {level: levelCompare, op: ">>", kind: ast.NodeComp},
	"ftcontains": {level: levelFTContains},
	"to":         {level: levelRange},
	"+":          {level: levelAdditive, op: "+"},
	"-":          {level: levelAdditive, op: "-"},
	"*":          {level: levelMultiplicative, op: "*"},
	"div":        {level: levelMultiplicative, op: "div"},
	"idiv":       {level: levelMultiplicative, op: "idiv"},
	"mod":        {level: levelMultiplicative, op: "mod"},
	"|":          {level: levelUnion, op: "union"},
	"union":      {level: levelUnion, op: "union"},
	"intersect":  {level: levelIntersect, op: "intersect"},
	"except":     {level: levelIntersect, op: "except"},
	"instance":   {level: levelInstanceOf, then: "of"},
	"treat":      {level: levelTreat, then: "as"},
	"castable":   {level: levelCastable, then: "as"},
	"cast":       {level: levelCast, then: "as"},
}

// nextOperator looks the next token up in the operator table; level 0
// means it is no operator. "to" is none inside a set-style target
// (noRange).
func (p *Parser) nextOperator() operator {
	t := p.peek()
	var o operator
	switch {
	case t.Kind == lexer.Sym:
		o = operators[t.Text]
	case t.Kind == lexer.Name && t.Prefix == "":
		o = operators[t.Local]
	}
	if (o.level == levelRange && p.noRange) || (o.then != "" && !p.peekAt(1).IsName(o.then)) {
		return operator{}
	}
	return o
}

// parseOperators parses unary operands joined by operators of level
// loosest or tighter, by precedence climbing. Each right operand is
// parsed at the next tighter level. The left-associative levels (those
// that build an ast.Binary) may repeat; after any other operator only
// a looser one may follow, so "1 = 2 = 3" stops before the second "=".
func (p *Parser) parseOperators(loosest int) ast.Expr {
	l := p.parseUnary()
	below := levelCast + 1 // the next operator's level must be under this
	for {
		o := p.nextOperator()
		if o.level < loosest || o.level >= below {
			return l
		}
		p.next()
		if o.then != "" {
			p.next()
		}
		below = o.level
		switch o.level {
		case levelCompare:
			l = ast.Compare{Op: o.op, Kind: o.kind, L: l, R: p.parseOperators(o.level + 1)}
		case levelFTContains:
			l = ast.FTContains{X: l, Sel: p.parseFTOr()}
		case levelRange:
			l = ast.Range{L: l, R: p.parseOperators(o.level + 1)}
		case levelInstanceOf:
			l = ast.InstanceOf{X: l, Type: p.parseSequenceType()}
		case levelTreat:
			l = ast.TreatAs{X: l, Type: p.parseSequenceType()}
		case levelCastable, levelCast:
			typ, opt := p.parseSingleType()
			l = ast.CastAs{X: l, Type: typ, Optional: opt, Castable: o.level == levelCastable}
		default:
			l = ast.Binary{Op: o.op, L: l, R: p.parseOperators(o.level + 1)}
			below = o.level + 1
		}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	neg := false
	signed := false
	for {
		t := p.peek()
		if t.IsSym("-") {
			neg = !neg
			signed = true
			p.next()
			continue
		}
		if t.IsSym("+") {
			signed = true
			p.next()
			continue
		}
		break
	}
	x := p.parsePath()
	if signed {
		return ast.Unary{Neg: neg, X: x}
	}
	return x
}
