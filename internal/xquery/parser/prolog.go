package parser

import (
	"repro/internal/xquery/ast"
	"repro/internal/xquery/lexer"
)

// parseModule parses a complete module: optional version declaration,
// optional library-module declaration (with the paper's webservice port
// extension), prolog, and — for main modules — the body program. The
// body may be a single expression or, per the Scripting Extension, a
// ";"-separated statement sequence; an empty body is allowed because
// browser pages often contain only function declarations plus listener
// registrations done from local:main() (paper §5.1).
func (p *Parser) parseModule() *ast.Module {
	m := &ast.Module{}
	m.Prolog.Namespaces = map[string]string{}
	m.Prolog.Options = map[string]string{}

	// xquery version "1.0" (encoding "...")? ;
	if p.peek().IsName("xquery") && p.peekAt(1).IsName("version") {
		p.next()
		p.next()
		if p.next().Kind != lexer.Str {
			p.fail("expected a version string")
		}
		if p.eatName("encoding") {
			if p.next().Kind != lexer.Str {
				p.fail("expected an encoding string")
			}
		}
		p.expectSym(";")
	}

	// module namespace prefix = "uri" (port: N)? ;
	if p.peek().IsName("module") && p.peekAt(1).IsName("namespace") {
		p.next()
		p.next()
		prefix := p.next()
		if prefix.Kind != lexer.Name || prefix.Prefix != "" {
			p.fail("expected a namespace prefix")
		}
		p.expectSym("=")
		uri := p.next()
		if uri.Kind != lexer.Str {
			p.fail("expected a namespace URI string")
		}
		m.IsLibrary = true
		m.Prefix = prefix.Local
		m.URI = uri.Text
		p.ns[prefix.Local] = uri.Text
		// Webservice extension: port:2001 (paper §3.4).
		if p.peek().IsName("port") && p.peekAt(1).IsSym(":") {
			p.next()
			p.next()
			m.Port = p.parseNumericLiteralValue()
		}
		p.expectSym(";")
	}

	p.parseProlog(&m.Prolog)
	p.sc.endProlog()

	if m.IsLibrary {
		p.expectEOF()
		return m
	}
	// Main module body: statements separated by ";".
	var stmts []ast.Expr
	for p.peek().Kind != lexer.EOF {
		stmts = append(stmts, p.parseExpr())
		if !p.eatSym(";") {
			break
		}
	}
	p.expectEOF()
	switch len(stmts) {
	case 0:
		m.Body = ast.SeqExpr{}
	case 1:
		m.Body = stmts[0]
	default:
		m.Body = ast.Block{Stmts: stmts}
	}
	return m
}

func (p *Parser) parseProlog(pr *ast.Prolog) {
	for {
		t := p.peek()
		switch {
		case t.IsName("declare"):
			n1 := p.peekAt(1)
			switch {
			case n1.IsName("namespace"):
				p.next()
				p.next()
				prefix := p.next()
				if prefix.Kind != lexer.Name || prefix.Prefix != "" {
					p.fail("expected a namespace prefix")
				}
				p.expectSym("=")
				uri := p.next()
				if uri.Kind != lexer.Str {
					p.fail("expected a namespace URI string")
				}
				p.ns[prefix.Local] = uri.Text
				pr.Namespaces[prefix.Local] = uri.Text
				p.expectSym(";")
			case n1.IsName("default"):
				p.next()
				p.next()
				which := p.next()
				switch {
				case which.IsName("element"):
					p.expectName("namespace")
					uri := p.next()
					if uri.Kind != lexer.Str {
						p.fail("expected a namespace URI string")
					}
					p.defaultElemNS = uri.Text
					pr.DefaultElemNS = uri.Text
				case which.IsName("function"):
					p.expectName("namespace")
					uri := p.next()
					if uri.Kind != lexer.Str {
						p.fail("expected a namespace URI string")
					}
					p.defaultFnNS = uri.Text
					pr.DefaultFnNS = uri.Text
				case which.IsName("collation"), which.IsName("order"):
					p.skipToSemicolon()
				default:
					p.failTok(which, "unknown default declaration %s", which)
				}
				p.expectSym(";")
			case n1.IsName("variable"):
				// Global variable: must be followed by ";" (unlike a
				// scripting block declaration inside the body — at
				// prolog level they are the same construct).
				p.next()
				p.next()
				v := ast.VarDecl{At: tokPos(t)}
				v.Name = p.varName()
				for _, d := range pr.Vars {
					if d.Name.Matches(v.Name) {
						p.failTok(t, "duplicate declaration of variable $%s", v.Name)
					}
				}
				if p.peek().IsName("as") {
					p.next()
					st := p.parseSequenceType()
					v.Type = &st
				}
				switch {
				case p.eatSym(":=") || p.eatSym("="):
					mark := p.sc.mark() // a declare in the initialiser stays in it
					v.Init = p.parseExprSingle()
					p.sc.pop(mark)
				case p.eatName("external"):
					v.External = true
				}
				v.ID = p.sc.declareGlobal(v.Name)
				pr.Vars = append(pr.Vars, v)
				p.expectSym(";")
			case n1.IsName("function") || n1.IsName("updating") || n1.IsName("sequential"):
				f := p.parseFunctionDecl()
				for _, d := range pr.Functions {
					if d.Name.Matches(f.Name) && len(d.Params) == len(f.Params) {
						p.failAt(f.At.Line, f.At.Col, "duplicate declaration of function %s#%d", f.Name, len(f.Params))
					}
				}
				pr.Functions = append(pr.Functions, f)
			case n1.IsName("option"):
				p.next()
				p.next()
				nameTok := p.next()
				if nameTok.Kind != lexer.Name {
					p.fail("expected an option name")
				}
				val := p.next()
				if val.Kind != lexer.Str {
					p.fail("expected an option value string")
				}
				lex := nameTok.Local
				if nameTok.Prefix != "" {
					lex = nameTok.Prefix + ":" + nameTok.Local
				}
				pr.Options[lex] = val.Text
				p.expectSym(";")
			case n1.IsName("boundary-space") || n1.IsName("base-uri") ||
				n1.IsName("ordering") || n1.IsName("construction") ||
				n1.IsName("copy-namespaces") || n1.IsName("revalidation"):
				// Recognised but semantically fixed in this engine.
				p.next()
				p.skipToSemicolon()
				p.expectSym(";")
			default:
				return
			}
		case t.IsName("import"):
			n1 := p.peekAt(1)
			if !n1.IsName("module") {
				p.failTok(t, "only module imports are supported")
			}
			p.next()
			p.next()
			imp := ast.ModuleImport{}
			if p.eatName("namespace") {
				prefix := p.next()
				if prefix.Kind != lexer.Name || prefix.Prefix != "" {
					p.fail("expected a namespace prefix")
				}
				imp.Prefix = prefix.Local
				p.expectSym("=")
			}
			uri := p.next()
			if uri.Kind != lexer.Str {
				p.fail("expected a module URI string")
			}
			imp.URI = uri.Text
			if imp.Prefix != "" {
				p.ns[imp.Prefix] = uri.Text
			}
			if p.eatName("at") {
				for {
					h := p.next()
					if h.Kind != lexer.Str {
						p.fail("expected a location hint string")
					}
					imp.Hints = append(imp.Hints, h.Text)
					if !p.eatSym(",") {
						break
					}
				}
			}
			pr.Imports = append(pr.Imports, imp)
			p.expectSym(";")
		default:
			return
		}
	}
}

func (p *Parser) skipToSemicolon() {
	for {
		t := p.peek()
		if t.Kind == lexer.EOF {
			p.fail("unterminated declaration")
		}
		if t.IsSym(";") {
			return
		}
		p.next()
	}
}

func (p *Parser) parseFunctionDecl() ast.FuncDecl {
	dt := p.next() // declare
	var f ast.FuncDecl
	f.At = tokPos(dt)
	for {
		t := p.peek()
		switch {
		case t.IsName("updating"):
			f.Updating = true
			p.next()
		case t.IsName("sequential"):
			f.Sequential = true
			p.next()
		default:
			goto done
		}
	}
done:
	p.expectName("function")
	nameTok := p.next()
	if nameTok.Kind != lexer.Name {
		p.fail("expected a function name")
	}
	if nameTok.Prefix == "" {
		// Unprefixed declared functions land in the local namespace by
		// convention (main-module functions must not be in fn:).
		nameTok.Prefix = "local"
	}
	f.Name = p.resolve(nameTok, "function")
	defer p.sc.pop(p.sc.mark())
	p.expectSym("(")
	if !p.peek().IsSym(")") {
		for {
			prm := ast.Param{Name: p.varName()}
			prm.ID = p.sc.declare(prm.Name)
			if p.peek().IsName("as") {
				p.next()
				st := p.parseSequenceType()
				prm.Type = &st
			}
			f.Params = append(f.Params, prm)
			if !p.eatSym(",") {
				break
			}
		}
	}
	p.expectSym(")")
	if p.peek().IsName("as") {
		p.next()
		st := p.parseSequenceType()
		f.ReturnType = &st
	}
	switch {
	case p.eatName("external"):
		f.External = true
		p.expectSym(";")
	case p.peek().IsSym("{"):
		p.next()
		p.sc.inFunction = true
		f.Body = p.parseBlock()
		p.sc.inFunction = false
		// A body of a single non-scripting expression evaluates
		// identically whether treated as a block or not.
		if b, ok := f.Body.(ast.Block); ok && len(b.Stmts) == 1 {
			if _, isDecl := b.Stmts[0].(ast.BlockDecl); !isDecl {
				f.Body = b.Stmts[0]
			}
		}
		p.expectSym(";")
	default:
		p.fail("expected a function body or \"external\"")
	}
	return f
}
