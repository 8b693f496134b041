package plan

import (
	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// Freshness. A constructor copies its content, and so do insert and
// replace: a node that came from the page or from a variable must not
// end up in two places. But most content is built for the occasion —
// <tr>{for … return <td>…</td>}</tr> — and copying a node that was made
// a moment ago, for this evaluation, and that nothing else can reach
// only allocates it twice. Whether an expression yields such nodes is a
// static aliasing property, so the planner decides it: an expression is
// fresh when every node it yields was built by a constructor evaluated
// for that very evaluation of the expression and is reachable from
// nothing else. Consumers whose operand is fresh get Adopt set
// (ast.DirElem.Adopt and its siblings), and the runtime then takes the
// nodes as they are. The rule, one line per construct:
//
//   - a direct or computed constructor is fresh: it builds its node on
//     every evaluation and hands out the only reference;
//   - a literal is fresh: it yields no node at all;
//   - a sequence, ordered{}, if and typeswitch are fresh when every
//     item or branch is: they pass their operands' nodes on once;
//   - a FLWOR is fresh when its return is: each tuple evaluates the
//     return anew (order by only moves tuples);
//   - a block is fresh when its last statement is: that is its value;
//   - a call to a function the module itself declares is fresh when the
//     function's body is, and so is the operand of every exit returning
//     in it: the fresh column of the function's record, which the
//     module's fixpoint computes with the others (props.go);
//   - a reference to a let variable is fresh when the variable's value
//     is and this reference is all that ever reads it (bindLet);
//   - everything else is not: a path, the context item, a for,
//     quantifier, typeswitch, copy or block variable, a parameter, a
//     global, a built-in, host or imported function (which may hand an
//     argument through), a set operation, ast.Hoisted (memoised: one
//     node for many evaluations).
//
// The answer is only ever used to skip a copy, and "not fresh" is right
// for every expression, so unknown shapes answer false.

// letVar is a let variable in scope whose value is fresh.
type letVar struct {
	name dom.QName
	// refs is how many references read the variable. With exactly one
	// the reference is fresh itself; with more every reader copies, which
	// xqlint tells the author (CopiedLets).
	refs int
}

// exitsFresh reports whether every exit returning under e — wherever it
// stands, it unwinds to the function e is the body of and becomes its
// result — has a fresh operand. The operand is judged without the let
// variables around it, which errs towards copying.
func (in *inference) exitsFresh(e ast.Expr) bool {
	if x, ok := e.(ast.Exit); ok && !in.fresh(x.With, nil) {
		return false
	}
	fresh := true
	ast.EachChild(e, func(c ast.Expr) { fresh = fresh && in.exitsFresh(c) })
	return fresh
}

// fresh reports whether e is fresh, lets being the let variables with a
// fresh value in whose scope e stands.
func (in *inference) fresh(e ast.Expr, lets []letVar) bool {
	switch x := e.(type) {
	case ast.DirElem, ast.CompConstructor,
		ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return true
	case ast.SeqExpr:
		for _, it := range x.Items {
			if !in.fresh(it, lets) {
				return false
			}
		}
		return true
	case ast.Ordered:
		return in.fresh(x.X, lets)
	case ast.If:
		return in.fresh(x.Then, lets) && in.fresh(x.Else, lets)
	case ast.Typeswitch:
		for _, c := range x.Cases {
			if !in.fresh(c.Body, lets) {
				return false
			}
		}
		return in.fresh(x.Default, lets)
	case ast.FLWOR:
		for i := range x.Clauses {
			lets = in.bindLet(x, i, lets)
		}
		return in.fresh(x.Return, lets)
	case ast.Block:
		return len(x.Stmts) > 0 && in.fresh(x.Stmts[len(x.Stmts)-1], lets)
	case ast.FuncCall:
		f := in.function(x)
		return f != nil && f.fresh
	case ast.VarRef:
		l := lookupLet(lets, x.Name)
		return l != nil && l.refs == 1
	default:
		return false
	}
}

// lookupLet finds the innermost let variable of that name. No other
// binding of the name can sit between it and the reference: bindLet
// refuses a variable whose scope rebinds its name.
func lookupLet(lets []letVar, name dom.QName) *letVar {
	for i := len(lets) - 1; i >= 0; i-- {
		if lets[i].name.Matches(name) {
			return &lets[i]
		}
	}
	return nil
}

// bindLet returns lets extended by clause i of f, if that is a let
// clause whose value is fresh and whose variable is only ever read the
// way a reader can take the value over: by references that each run at
// most once per evaluation of the clause (not under a for, a
// quantifier, a predicate or a loop opened after the binding, which
// would read one node many times), with nothing assigning the variable
// and nothing rebinding its name. How many such references there are
// is recorded; only a sole reference is fresh.
func (in *inference) bindLet(f ast.FLWOR, i int, lets []letVar) []letVar {
	cl := f.Clauses[i]
	if cl.For || !in.fresh(cl.In, lets) {
		return lets
	}
	u := letUse{name: cl.Var}
	u.flwor(f, i+1, true)
	if u.refs == 0 || u.unsafe {
		return lets
	}
	return append(lets, letVar{name: cl.Var, refs: u.refs})
}

// letUse is one scan of the scope of a let variable.
type letUse struct {
	name   dom.QName
	refs   int
	unsafe bool // a read that can repeat, an assignment, or a rebinding of the name
}

func (u *letUse) binds(v dom.QName) {
	if v.Matches(u.name) {
		u.unsafe = true
	}
}

// flwor scans f from clause from on; once is as for scan.
func (u *letUse) flwor(f ast.FLWOR, from int, once bool) {
	for _, cl := range f.Clauses[from:] {
		u.scan(cl.In, once)
		u.binds(cl.Var)
		u.binds(cl.PosVar)
		once = once && !cl.For
	}
	if j := f.Join; j != nil {
		u.scan(j.OuterKey, false)
		u.scan(j.InnerKey, false)
		u.scan(j.Pred, false)
	}
	u.scan(f.Where, once)
	for _, o := range f.OrderBy {
		u.scan(o.Key, once)
	}
	u.scan(f.Return, once)
}

// scan walks e; once says e is evaluated at most once per evaluation of
// the let clause. Kinds not named here are walked as if they repeated
// their operands, which only costs a copy.
func (u *letUse) scan(e ast.Expr, once bool) {
	switch x := e.(type) {
	case nil:
	case ast.VarRef:
		if x.Name.Matches(u.name) {
			u.refs++
			u.unsafe = u.unsafe || !once
		}
	case ast.Assign:
		u.binds(x.Var)
		u.scan(x.Val, once)
	case ast.BlockDecl:
		u.scan(x.Init, once)
		u.binds(x.Var)
	case ast.FLWOR:
		u.flwor(x, 0, once)
	case ast.Quantified:
		for _, cl := range x.Vars {
			u.scan(cl.In, once)
			u.binds(cl.Var)
			once = false
		}
		u.scan(x.Satisfies, false)
	case ast.Typeswitch:
		u.scan(x.Operand, once)
		for _, c := range x.Cases {
			u.binds(c.Var)
			u.scan(c.Body, once)
		}
		u.binds(x.DefaultVar)
		u.scan(x.Default, once)
	case ast.Transform:
		for _, b := range x.Bindings {
			u.scan(b.In, once)
			u.binds(b.Var)
		}
		u.scan(x.Modify, once)
		u.scan(x.Return, once)
	case ast.Path:
		// Only a leading primary runs once; every later step and every
		// predicate runs per context item.
		for i, s := range x.Steps {
			u.scan(s.Primary, once && i == 0)
			for _, pr := range s.Preds {
				u.scan(pr, false)
			}
		}
	case ast.SeqExpr, ast.Ordered, ast.If, ast.FuncCall, ast.Binary, ast.Compare,
		ast.Unary, ast.Range, ast.InstanceOf, ast.TreatAs, ast.CastAs,
		ast.DirElem, ast.CompConstructor, ast.Insert, ast.Delete, ast.Replace,
		ast.Rename, ast.Block, ast.Exit:
		// Each operand is evaluated at most once, and none is bound.
		ast.EachChild(e, func(c ast.Expr) { u.scan(c, once) })
	default:
		ast.EachChild(e, func(c ast.Expr) { u.scan(c, false) })
	}
}

// CopiedLet is a place where a constructed node is still copied only
// because of how the query is written: an insert or replace source, or
// an enclosed expression of a constructor, that is a reference to a let
// variable holding a fresh value which other references read too.
type CopiedLet struct {
	Var  dom.QName
	At   ast.Pos // of the reference
	Refs int     // how many references read the variable
}

// CopiedLets lists the module's CopiedLet places, for xqlint. It plans
// the module's expressions over again without installing anything, so
// it works on a planned module as on a parsed one.
func CopiedLets(m *ast.Module) []CopiedLet {
	p := &planner{in: newInference(m)}
	for i := range m.Prolog.Vars {
		p.expr(m.Prolog.Vars[i].Init)
	}
	for i := range m.Prolog.Functions {
		p.expr(m.Prolog.Functions[i].Body)
	}
	p.expr(m.Body)
	return p.copied
}
