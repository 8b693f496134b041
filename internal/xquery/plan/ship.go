package plan

import (
	"slices"

	"repro/internal/xquery/ast"
)

// Shipping per-document expressions. An expression over
// fn:collection(…) is usually a map over the collection's documents:
// the steps of C/S₁/…/Sₙ never leave the tree they start in, so the
// path is the concatenation of ./S₁/…/Sₙ evaluated on each document,
// and a FLWOR ranging over it is the concatenation of the same FLWOR
// ranging over each document's share. When what comes out is atomic
// values — which have no identity, no document order and no parent to
// lose on the way — a source that holds the documents (a federated
// shard) can evaluate the per-document expression itself and answer
// the values instead of the documents. The planner recognises the two
// shapes for which all of this is provable from the text and leaves an
// ast.ShipPlan on the node; an evaluator with a shipping collection
// resolver answers the node through it, any other evaluator ignores
// the annotation and is still right:
//
//	(a) for $v in fn:collection(L)/S₁/…/Sₙ (let …)* (where …)? return R
//	    with n ≥ 0 axis steps, no predicate on the collection step, no
//	    positional variable, no type, no order by, and R atomic by
//	    construction (its result kind, props.go);
//	(b) fn:count(fn:collection(L)/S₁/…/Sₙ), n ≥ 1: count distributes
//	    over concatenation, so the answer is the sum of the
//	    per-document counts.
//
// The collection and the count are the library's, not the module's. L
// is a string literal or absent. What is shipped must mean the same
// on the source as here: it is closed, every part of it is clear of the
// unshippable column — no effect, no node construction, no call off the
// library's pure list or of the module's own functions — and, outside
// the collection path, it reads the focus nowhere but where a path step
// has set it, because on the source the focus is the document and here
// it is the query's. Last, the unparser must write it.

// collectionPath matches fn:collection(L) or fn:collection(L)/S₁/…/Sₙ
// and returns L and the steps behind the call.
func (in *inference) collectionPath(e ast.Expr) (uri string, steps []ast.Step, ok bool) {
	call, isCall := e.(ast.FuncCall)
	if p, isPath := e.(ast.Path); isPath && !p.Absolute && len(p.Steps) > 0 && len(p.Steps[0].Preds) == 0 {
		call, isCall = p.Steps[0].Primary.(ast.FuncCall)
		steps = p.Steps[1:]
	}
	if !isCall || call.Name.Space != fnSpace || call.Name.Local != "collection" || len(call.Args) > 1 ||
		in.function(call) != nil {
		return "", nil, false
	}
	if len(call.Args) == 1 {
		lit, isLit := call.Args[0].(ast.StringLit)
		if !isLit {
			return "", nil, false
		}
		uri = lit.Val
	}
	for i := range steps {
		if steps[i].Primary != nil {
			return "", nil, false
		}
		for _, pr := range steps[i].Preds {
			if !in.ships(pr, true) {
				return "", nil, false
			}
		}
	}
	return uri, steps, true
}

// perDocument is ./S₁/…/Sₙ: the collection path as each document sees
// it.
func perDocument(steps []ast.Step) ast.Expr {
	if len(steps) == 0 {
		return ast.ContextItem{}
	}
	return ast.Path{Steps: steps}
}

// shipPlan builds the annotation for a per-document expression, or nil
// when it cannot be written as text.
func shipPlan(uri string, expr ast.Expr, sum bool) *ast.ShipPlan {
	src, ok := ast.Unparse(expr)
	if !ok {
		return nil
	}
	return &ast.ShipPlan{URI: uri, Src: src, Expr: expr, Sum: sum}
}

// shipFLWOR recognises shape (a).
func (in *inference) shipFLWOR(f ast.FLWOR) *ast.ShipPlan {
	if len(f.Clauses) == 0 || len(f.OrderBy) != 0 || f.Join != nil {
		return nil
	}
	first := f.Clauses[0]
	if !first.For || !first.PosVar.IsZero() || first.Type != nil {
		return nil
	}
	uri, steps, ok := in.collectionPath(first.In)
	if !ok {
		return nil
	}
	for _, cl := range f.Clauses[1:] {
		if cl.For || cl.Type != nil || !in.ships(cl.In, false) {
			return nil
		}
	}
	if !in.ships(f.Where, false) || !in.ships(f.Return, false) || in.infer(f.Return).kind != kindAtomic {
		return nil
	}
	clauses := append([]ast.Clause(nil), f.Clauses...)
	clauses[0].In = perDocument(steps)
	perDoc := ast.FLWOR{Clauses: clauses, Where: f.Where, Return: f.Return, StreamDomain: f.StreamDomain}
	if !closed(perDoc) {
		return nil
	}
	return shipPlan(uri, perDoc, false)
}

// shipCount recognises shape (b).
func (in *inference) shipCount(c ast.FuncCall) *ast.ShipPlan {
	if c.Name.Space != fnSpace || c.Name.Local != "count" || len(c.Args) != 1 || in.function(c) != nil {
		return nil
	}
	uri, steps, ok := in.collectionPath(c.Args[0])
	if !ok || len(steps) == 0 {
		return nil
	}
	perDoc := ast.FuncCall{Name: c.Name, Args: []ast.Expr{perDocument(steps)}, At: c.At}
	if !closed(perDoc) {
		return nil
	}
	return shipPlan(uri, perDoc, true)
}

// Shippable reports whether a source may evaluate e, with a document as
// the context item, on behalf of a remote caller: e passes the planner's
// own test of what it ships and the unparser writes it. A source that
// checks this before evaluating runs nothing a planner could not have
// sent — no update, no constructor, no call off the library's pure list.
func Shippable(e ast.Expr) bool {
	if !(&inference{}).ships(e, true) || !closed(e) {
		return false
	}
	_, ok := ast.Unparse(e)
	return ok
}

// ships reports whether e is free of every effect a source must not
// have (the unshippable column) and — unless focus says the focus is the
// shipped expression's own — reads the focus only where a path step has
// set it.
func (in *inference) ships(e ast.Expr, focus bool) bool {
	mask := unshippable
	if !focus {
		mask |= ast.EffReadsFocus
	}
	return in.infer(e).eff&mask == 0
}

// closed reports whether every variable e reads is bound in e itself,
// by a for, let or quantifier clause: the parser resolved each
// reference to its binding (ast.VarID), so a reference whose binding
// one of e's clauses declares reads that clause's variable. A binder
// the unparser does not write (typeswitch, copy … modify) declares
// nothing here: its variables count as free.
func closed(e ast.Expr) bool {
	var buf [8]ast.VarID
	bound := buf[:0]
	joined := contains(e, func(x ast.Expr) bool {
		switch x := x.(type) {
		case ast.FLWOR:
			bound = clauseVars(bound, x.Clauses)
			return x.Join != nil // the unparser writes no join
		case ast.Quantified:
			bound = clauseVars(bound, x.Vars)
		}
		return false
	})
	return !joined && !contains(e, func(x ast.Expr) bool {
		v, ok := x.(ast.VarRef)
		return ok && !slices.Contains(bound, v.ID)
	})
}
