package plan

import "repro/internal/xquery/ast"

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
//	    construction (atomicExpr);
//	(b) fn:count(fn:collection(L)/S₁/…/Sₙ), n ≥ 1: count distributes
//	    over concatenation, so the answer is the sum of the
//	    per-document counts.
//
// L is a string literal or absent. What is shipped must mean the same
// on the source as here: every part of it passes shippable — a closed,
// effect-free expression whose calls are all on the pureFn allowlist
// and which reads the focus nowhere outside a step predicate, because
// on the source the focus is the document and here it is the query's.

// collectionPath matches fn:collection(L) or fn:collection(L)/S₁/…/Sₙ
// and returns L and the steps behind the call.
func collectionPath(e ast.Expr) (uri string, steps []ast.Step, ok bool) {
	call, isCall := e.(ast.FuncCall)
	if p, isPath := e.(ast.Path); isPath && !p.Absolute && len(p.Steps) > 0 && len(p.Steps[0].Preds) == 0 {
		call, isCall = p.Steps[0].Primary.(ast.FuncCall)
		steps = p.Steps[1:]
	}
	if !isCall || call.Name.Space != fnSpace || call.Name.Local != "collection" || len(call.Args) > 1 {
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
		if steps[i].Primary != nil || !allShippable(steps[i].Preds, nil, true) {
			return "", nil, false
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
func shipFLWOR(f ast.FLWOR) *ast.ShipPlan {
	if len(f.Clauses) == 0 || len(f.OrderBy) != 0 || f.Join != nil {
		return nil
	}
	first := f.Clauses[0]
	if !first.For || !first.PosVar.IsZero() || first.Type != nil {
		return nil
	}
	uri, steps, ok := collectionPath(first.In)
	if !ok {
		return nil
	}
	bound := map[string]bool{vkey(first.Var): true}
	for _, cl := range f.Clauses[1:] {
		if cl.For || cl.Type != nil || !shippable(cl.In, bound, false) {
			return nil
		}
		bound[vkey(cl.Var)] = true
	}
	if !shippable(f.Where, bound, false) || !shippable(f.Return, bound, false) || !atomicExpr(f.Return) {
		return nil
	}
	clauses := append([]ast.Clause(nil), f.Clauses...)
	clauses[0].In = perDocument(steps)
	return shipPlan(uri, ast.FLWOR{Clauses: clauses, Where: f.Where, Return: f.Return}, false)
}

// shipCount recognises shape (b).
func shipCount(c ast.FuncCall) *ast.ShipPlan {
	if c.Name.Space != fnSpace || c.Name.Local != "count" || len(c.Args) != 1 {
		return nil
	}
	uri, steps, ok := collectionPath(c.Args[0])
	if !ok || len(steps) == 0 {
		return nil
	}
	return shipPlan(uri, ast.FuncCall{Name: c.Name, Args: []ast.Expr{perDocument(steps)}, At: c.At}, true)
}

// Shippable reports whether a source may evaluate e, with a document as
// the context item, on behalf of a remote caller: e is closed and
// passes the planner's own test of what it ships. A source that checks
// this before evaluating runs nothing a planner could not have sent —
// no update, no constructor, no call outside the pureFn allowlist.
func Shippable(e ast.Expr) bool { return shippable(e, nil, true) }

func allShippable(es []ast.Expr, bound map[string]bool, focus bool) bool {
	for _, e := range es {
		if !shippable(e, bound, focus) {
			return false
		}
	}
	return true
}

// shippable reports whether e is effect-free, uses only what the
// unparser can write, refers to no variable outside bound (and the
// ones it binds itself), and — unless focus says the focus is the
// shipped expression's own — reads the focus only where a path step
// has set it. Unknown shapes answer false.
func shippable(e ast.Expr, bound map[string]bool, focus bool) bool {
	switch x := e.(type) {
	case nil:
		return true
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return true
	case ast.VarRef:
		return bound[vkey(x.Name)]
	case ast.ContextItem:
		return focus
	case ast.SeqExpr:
		return allShippable(x.Items, bound, focus)
	case ast.Ordered:
		return shippable(x.X, bound, focus)
	case ast.FuncCall:
		if x.Name.Space != fnSpace || !pureFn[x.Name.Local] {
			return false
		}
		if n, defaults := contextFnMinArgs[x.Name.Local]; defaults && len(x.Args) < n && !focus {
			return false // reads the focus through an omitted argument
		}
		return allShippable(x.Args, bound, focus)
	case ast.If:
		return shippable(x.Cond, bound, focus) && shippable(x.Then, bound, focus) &&
			shippable(x.Else, bound, focus)
	case ast.FLWOR:
		if x.Join != nil {
			return false
		}
		inner, ok := shippableClauses(x.Clauses, bound, focus)
		if !ok {
			return false
		}
		for _, o := range x.OrderBy {
			if !shippable(o.Key, inner, focus) {
				return false
			}
		}
		return shippable(x.Where, inner, focus) && shippable(x.Return, inner, focus)
	case ast.Quantified:
		inner, ok := shippableClauses(x.Vars, bound, focus)
		return ok && shippable(x.Satisfies, inner, focus)
	case ast.Binary:
		return shippable(x.L, bound, focus) && shippable(x.R, bound, focus)
	case ast.Compare:
		return shippable(x.L, bound, focus) && shippable(x.R, bound, focus)
	case ast.Range:
		return shippable(x.L, bound, focus) && shippable(x.R, bound, focus)
	case ast.Unary:
		return shippable(x.X, bound, focus)
	case ast.InstanceOf:
		return shippable(x.X, bound, focus)
	case ast.TreatAs:
		return shippable(x.X, bound, focus)
	case ast.CastAs:
		return shippable(x.X, bound, focus)
	case ast.Path:
		// An absolute path and a leading axis step start at the focus;
		// behind the first step every step and predicate has a focus of
		// the path's own making.
		if (x.Absolute || len(x.Steps) > 0 && x.Steps[0].Primary == nil) && !focus {
			return false
		}
		for i := range x.Steps {
			s := &x.Steps[i]
			if !shippable(s.Primary, bound, focus || i > 0) || !allShippable(s.Preds, bound, true) {
				return false
			}
		}
		return true
	case ast.FTContains:
		return shippable(x.X, bound, focus) && shippableFT(x.Sel, bound, focus)
	default:
		return false
	}
}

// shippableClauses checks the binding expressions of for/let (or
// quantifier) clauses in order and returns bound extended by their
// variables.
func shippableClauses(clauses []ast.Clause, bound map[string]bool, focus bool) (map[string]bool, bool) {
	inner := make(map[string]bool, len(bound)+len(clauses))
	for k := range bound {
		inner[k] = true
	}
	for _, cl := range clauses {
		if !shippable(cl.In, inner, focus) {
			return nil, false
		}
		inner[vkey(cl.Var)] = true
		if !cl.PosVar.IsZero() {
			inner[vkey(cl.PosVar)] = true
		}
	}
	return inner, true
}

func shippableFT(sel ast.FTSelection, bound map[string]bool, focus bool) bool {
	switch s := sel.(type) {
	case ast.FTWords:
		return shippable(s.Source, bound, focus)
	case ast.FTAnd:
		return shippableFT(s.L, bound, focus) && shippableFT(s.R, bound, focus)
	case ast.FTOr:
		return shippableFT(s.L, bound, focus) && shippableFT(s.R, bound, focus)
	case ast.FTNot:
		return shippableFT(s.X, bound, focus)
	default:
		return false
	}
}

// atomicFn lists the pureFn builtins whose result is atomic whatever
// they are given. The pureFn entries that hand nodes through — root,
// id, reverse, subsequence, head, tail, remove, insert-before,
// zero-or-one, one-or-more, exactly-one — are not on it; nor are
// node-name and base-uri, whose xs:QName and document-relative
// xs:anyURI results the wire would not give back unchanged.
var atomicFn = map[string]bool{}

func init() {
	for _, n := range []string{
		"string", "concat", "string-join", "substring", "string-length",
		"length", "normalize-space", "upper-case", "lower-case",
		"translate", "contains", "starts-with", "ends-with",
		"substring-before", "substring-after", "compare",
		"encode-for-uri", "codepoints-to-string", "string-to-codepoints",
		"matches", "replace", "tokenize",
		"number", "abs", "floor", "ceiling", "round", "round-half-to-even",
		"true", "false", "not", "boolean",
		"empty", "exists", "count", "index-of", "distinct-values",
		"deep-equal", "data", "sum", "avg", "min", "max",
		"name", "local-name", "namespace-uri",
	} {
		if !pureFn[n] {
			panic("plan: atomicFn entry " + n + " is not in pureFn")
		}
		atomicFn[n] = true
	}
}

// atomicExpr reports whether every item e can yield is an atomic value
// by construction. Conservative: a variable reference answers false
// (what it is bound to is not tracked), and so does every shape that
// can hand a node through.
func atomicExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return true
	case ast.SeqExpr:
		for _, it := range x.Items {
			if !atomicExpr(it) {
				return false
			}
		}
		return true
	case ast.Ordered:
		return atomicExpr(x.X)
	case ast.FuncCall:
		return x.Name.Space == fnSpace && atomicFn[x.Name.Local]
	case ast.If:
		return atomicExpr(x.Then) && atomicExpr(x.Else)
	case ast.FLWOR:
		return atomicExpr(x.Return)
	case ast.Binary:
		switch x.Op {
		case "union", "intersect", "except":
			return false
		}
		return true // arithmetic and and/or
	case ast.Compare, ast.Range, ast.Unary, ast.Quantified, ast.InstanceOf, ast.CastAs, ast.FTContains:
		return true
	default:
		return false
	}
}

// declaresFn reports whether the module declares a function in the fn:
// namespace: the allowlists above name builtins by their local name, so
// such a module is never shipped from.
func declaresFn(m *ast.Module) bool {
	for _, f := range m.Prolog.Functions {
		if f.Name.Space == fnSpace {
			return true
		}
	}
	return false
}
