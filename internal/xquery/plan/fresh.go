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
//     is, and the binder's table (bind.go) says it is the variable's
//     only reference, it runs at most once per evaluation of the clause
//     (not under a for, a quantifier, a predicate or a loop opened after
//     the binding, which would read one node many times) and nothing
//     assigns the variable;
//   - everything else is not: a path, the context item, a for,
//     quantifier, typeswitch, copy or block variable, a parameter, a
//     global, a built-in, host or imported function (which may hand an
//     argument through), a set operation, ast.Hoisted (memoised: one
//     node for many evaluations).
//
// The answer is only ever used to skip a copy, and "not fresh" is right
// for every expression, so unknown shapes answer false.

// exitsFresh reports whether every exit returning under e — wherever it
// stands, it unwinds to the function e is the body of and becomes its
// result — has a fresh operand. A let variable the operand reads counts
// as fresh only where fresh has judged the variable's clause.
func (in *inference) exitsFresh(e ast.Expr) bool {
	if x, ok := e.(ast.Exit); ok && !in.fresh(x.With) {
		return false
	}
	fresh := true
	ast.EachChild(e, func(c ast.Expr) { fresh = fresh && in.exitsFresh(c) })
	return fresh
}

// fresh reports whether e is fresh.
func (in *inference) fresh(e ast.Expr) bool {
	switch x := e.(type) {
	case ast.DirElem, ast.CompConstructor,
		ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return true
	case ast.SeqExpr:
		for _, it := range x.Items {
			if !in.fresh(it) {
				return false
			}
		}
		return true
	case ast.Ordered:
		return in.fresh(x.X)
	case ast.If:
		return in.fresh(x.Then) && in.fresh(x.Else)
	case ast.Typeswitch:
		for _, c := range x.Cases {
			if !in.fresh(c.Body) {
				return false
			}
		}
		return in.fresh(x.Default)
	case ast.FLWOR:
		for _, cl := range x.Clauses {
			in.noteLet(cl)
		}
		return in.fresh(x.Return)
	case ast.Block:
		return len(x.Stmts) > 0 && in.fresh(x.Stmts[len(x.Stmts)-1])
	case ast.FuncCall:
		f := in.function(x)
		return f != nil && f.fresh
	case ast.VarRef:
		b := in.freshLet(x.ID)
		return b != nil && b.Refs == 1
	default:
		return false
	}
}

// noteLet judges the value of clause cl, if it binds a let variable
// whose references read it the way a reader can take the value over
// (freshLet), for those references.
func (in *inference) noteLet(cl ast.Clause) {
	b := in.vars.Of(cl.ID)
	if b == nil || b.Kind != ast.VarLet || b.Refs == 0 || b.Repeats || b.Assigned {
		return
	}
	if in.letFresh == nil {
		if in.letFresh = in.small[:]; len(in.vars) > 64*len(in.small) {
			in.letFresh = make([]uint64, (len(in.vars)+63)/64)
		}
	}
	word, bit := cl.ID/64, uint64(1)<<(cl.ID%64)
	if in.fresh(cl.In) {
		in.letFresh[word] |= bit
	} else {
		in.letFresh[word] &^= bit
	}
}

// freshLet returns the binding of the let variable id when its value is
// fresh and every reference to it runs at most once per evaluation of
// its clause, with nothing assigning it; nil otherwise. With one
// reference, the reference is fresh itself; with more every reader
// copies, which xqlint tells the author (CopiedLets).
func (in *inference) freshLet(id ast.VarID) *ast.Binding {
	if id < 0 || int(id/64) >= len(in.letFresh) || in.letFresh[id/64]&(1<<(id%64)) == 0 {
		return nil
	}
	return in.vars.Of(id)
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
