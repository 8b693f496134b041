package analysis

import (
	"strconv"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
)

// updCtx says whether an updating expression may appear at the current
// position, and if not, why — the distinction picks the diagnostic
// code (XQ0101 vs XQ0102).
type updCtx int

const (
	// updAllowed: statement-like positions where the Update Facility
	// permits updating expressions (module body statements, if
	// branches, FLWOR return, block statements, transform modify, ...).
	updAllowed updCtx = iota
	// updExpr: value positions — conditions, operands, arguments,
	// predicates, binding sequences. Never updating.
	updExpr
	// updFunc: positions that would be allowed, except the enclosing
	// function is not declared updating or sequential.
	updFunc
)

// walk is the combined semantic / update-placement / browser-policy
// traversal. upd is the update-placement context of this position.
// Child positions that keep statement semantics pass upd through; value
// positions pass updExpr. Only the kinds that update, keep statement
// semantics or are checked themselves are named; every other kind's
// children are value positions (ast.EachChild). Which binding a
// variable name means is the parser's decision, and what is known of
// the binding is a row of the binding table (c.vars).
func (c *checker) walk(e ast.Expr, upd updCtx) {
	switch x := e.(type) {
	case ast.VarRef:
		if c.free(x.ID) && !c.imports[x.Name.Space] {
			c.report(CodeUnboundVar, SevError, x.At, "unbound variable $%s", varDisplay(x.Name))
		}
		return

	case ast.SeqExpr, ast.Ordered:
		ast.EachChild(e, func(ch ast.Expr) { c.walk(ch, upd) })
		return

	case ast.FuncCall:
		c.checkCall(x, upd)
		return

	case ast.If:
		c.walk(x.Cond, updExpr)
		if b, ok := c.constBool(x.Cond); ok {
			branch := "\"else\""
			val := "true"
			if !b {
				branch = "\"then\""
				val = "false"
			}
			c.report(CodeConstCond, SevWarning, x.At,
				"condition is constantly %s; the %s branch is dead", val, branch)
		}
		c.walk(x.Then, upd)
		c.walk(x.Else, upd)
		return

	case ast.FLWOR:
		c.noteShipped(x.Ship, ast.PosOf(x))
		seen := map[dom.QName]bool{}
		for _, cl := range x.Clauses {
			c.walk(cl.In, updExpr)
			if !cl.For && seen[cl.Var] {
				c.report(CodeDuplicateLet, SevWarning, cl.At,
					"duplicate binding of $%s in the same FLWOR shadows the earlier one",
					varDisplay(cl.Var))
			}
			seen[cl.Var] = true
			if cl.PosVar.Local != "" {
				seen[cl.PosVar] = true
			}
		}
		c.walk(x.Where, updExpr)
		for _, os := range x.OrderBy {
			c.walk(os.Key, updExpr)
		}
		c.walk(x.Return, upd)
		return

	case ast.Typeswitch:
		c.walk(x.Operand, updExpr)
		for _, cs := range x.Cases {
			c.walk(cs.Body, upd)
		}
		c.walk(x.Default, upd)
		return

	case ast.Insert:
		c.updatingExpr(x.At, "insert", upd)
		c.checkWindowWrite(x.Target, false, x.At)
	case ast.Delete:
		c.updatingExpr(x.At, "delete", upd)
		c.checkWindowWrite(x.Target, false, x.At)
	case ast.Replace:
		c.updatingExpr(x.At, "replace", upd)
		c.checkWindowWrite(x.Target, x.ValueOf, x.At)
	case ast.Rename:
		c.updatingExpr(x.At, "rename", upd)
		c.checkWindowWrite(x.Target, false, x.At)

	case ast.Transform:
		for _, b := range x.Bindings {
			c.walk(b.In, updExpr)
		}
		// The modify clause is its own updating context: transform is a
		// plain (non-updating) expression that updates only its copies.
		c.walk(x.Modify, updAllowed)
		c.walk(x.Return, updExpr)
		return

	case ast.Block:
		for _, st := range x.Stmts {
			c.walk(st, upd)
		}
		return
	case ast.Assign:
		if c.free(x.ID) {
			c.report(CodeAssignUndeclared, SevError, x.At,
				"assignment to undeclared variable $%s", varDisplay(x.Var))
		}
	case ast.While:
		c.walk(x.Cond, updExpr)
		c.walk(x.Body, upd)
		return

	case ast.EventAttach:
		c.checkListener(x.Listener, x.At)
	case ast.EventDetach:
		c.checkListener(x.Listener, x.At)
	}
	ast.EachChild(e, func(ch ast.Expr) { c.walk(ch, updExpr) })
}

// free reports whether no declaration binds id.
func (c *checker) free(id ast.VarID) bool {
	b := c.vars.Of(id)
	return b != nil && b.Kind == ast.VarFree
}

// updatingExpr reports a misplaced updating expression. what names the
// construct for the message.
func (c *checker) updatingExpr(at ast.Pos, what string, upd updCtx) {
	switch upd {
	case updAllowed:
	case updFunc:
		c.report(CodeUpdateInPure, SevError, at,
			"updating expression (%s) in a function not declared updating", what)
	default:
		c.report(CodeMisplacedUpdate, SevError, at,
			"updating expression (%s) in a non-updating context", what)
	}
}

// checkCall resolves a static function call: user declarations first,
// then the registry signature table, then imported namespaces (opaque
// at analysis time). Calls to updating functions are themselves
// updating expressions and go through the placement check.
func (c *checker) checkCall(fc ast.FuncCall, upd updCtx) {
	c.noteShipped(fc.Ship, fc.At)
	arity := len(fc.Args)
	defer func() {
		for _, a := range fc.Args {
			c.walk(a, updExpr)
		}
	}()

	if decls, ok := c.funcs[fnKey(fc.Name)]; ok {
		for _, d := range decls {
			if len(d.Params) == arity {
				if d.Updating {
					c.updatingExpr(fc.At, "call to updating function "+fnDisplay(fc.Name), upd)
				}
				return
			}
		}
		c.report(CodeArity, SevError, fc.At,
			"%s expects %s, got %d", fnDisplay(fc.Name), expectedArity(decls), arity)
		return
	}

	if f := c.reg.Lookup(fc.Name, arity); f != nil {
		if c.browser {
			c.checkBrowserCall(fc)
		}
		if f.Updating {
			c.updatingExpr(fc.At, "call to updating function "+fnDisplay(fc.Name), upd)
		}
		return
	}
	if ovs := c.reg.Overloads(fc.Name); len(ovs) > 0 {
		c.report(CodeArity, SevError, fc.At,
			"%s does not accept %d argument(s)", fnDisplay(fc.Name), arity)
		return
	}
	if c.imports[fc.Name.Space] {
		return // provided by an imported module; unknowable statically
	}
	c.report(CodeUnknownFunc, SevError, fc.At,
		"unknown function %s#%d", fnDisplay(fc.Name), arity)
}

// noteShipped reports the planner's shipping annotation (XQ0501): the
// node is a map over a collection's documents with atomic results, so
// a run whose collections come from a source that takes expressions (a
// federation) has the source evaluate it and moves the values, not the
// documents. Advisory: nothing is wrong with a node that has none.
func (c *checker) noteShipped(p *ast.ShipPlan, at ast.Pos) {
	if p != nil {
		c.report(CodeShipped, SevNote, at, "evaluated per document at the collection's source: %s", p.Src)
	}
}

// noteCopiedLets reports where the planner still copies a node some
// constructor has just built (XQ0502): a constructor, insert or replace
// takes the value of a let variable that other references read too, so
// the node cannot change hands. Advisory — the copy is what keeps the
// other references right; read once, the node is adopted instead.
func (c *checker) noteCopiedLets(m *ast.Module) {
	for _, cl := range plan.CopiedLets(m) {
		c.report(CodeCopiedLet, SevNote, cl.At,
			"the constructed value of $%s is copied here: %d references read the variable (read once, it is taken as it is)",
			varDisplay(cl.Var), cl.Refs)
	}
}

// checkListener verifies that an attached/detached listener names a
// known function (any arity — dispatch decides the argument shape).
func (c *checker) checkListener(name dom.QName, at ast.Pos) {
	if _, ok := c.funcs[fnKey(name)]; ok {
		return
	}
	if len(c.reg.Overloads(name)) > 0 || c.imports[name.Space] {
		return
	}
	c.report(CodeUnknownFunc, SevError, at,
		"unknown listener function %s", fnDisplay(name))
}

func expectedArity(decls []*ast.FuncDecl) string {
	if len(decls) == 1 {
		n := len(decls[0].Params)
		if n == 1 {
			return "1 argument"
		}
		return itoa(n) + " arguments"
	}
	out := ""
	for i, d := range decls {
		if i > 0 {
			out += " or "
		}
		out += itoa(len(d.Params))
	}
	return out + " arguments"
}

func itoa(n int) string { return strconv.Itoa(n) }
