package plan

import (
	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// The algebraic optimizer is the stage between path planning and
// evaluation: it rebuilds an expression tree with
//
//   - constant subtrees folded to literals (sharing plan.Fold with the
//     static analyzer, so the two passes agree on what is constant);
//   - nested FLWORs flattened into one clause list, which is what
//     exposes joins written as `for ... return for ...`;
//   - leading where conjuncts pushed down into the last for clause's
//     path as ordinary predicates — the shape the path planner then
//     turns into index probes;
//   - loop-invariant let bindings and where conjuncts wrapped in
//     ast.Hoisted, which the evaluator memoises per FLWOR entry;
//   - equality predicates between the last for clause and an earlier
//     one annotated as ast.JoinPlan for hash-join execution.
//
// Every rewrite copies: the optimizer never mutates its input, because
// the input is the planned tree the static analyzer and a stray-import
// binding keep reading (the `planpure` vet pass in tools/analyzers
// enforces the discipline syntactically). Prepare installs the result
// as a second set of roots on the module (ast.Module.Optimized).
//
// Rewrites are conservative about effects, per FLUX, and the conditions
// are stated here once because there is one evaluator to hold them.
// Each is a mask over the static properties of props.go:
//
//   - a subexpression is only moved or memoised when it is pure — clear
//     of the unmovable column: no update, write, scripting construct,
//     browser statement, node construction or recorded score, and no
//     call but to the library's pure list (not even to a function of the
//     module's own) — so no rewrite reorders across an updating
//     expression and PUL snapshot semantics survive unchanged;
//   - a unit (module body or function body) with a scripting construct
//     in it (EffScripting) is not optimized at all: its variables are
//     assignable and its statements apply pending updates as they go, so
//     nothing in it is invariant;
//   - a FLWOR is flattened but gets no pushdown, hoist or join when
//     evaluating any part of it — clauses, where, order by, return — can
//     reach something that changes the documents before the loop ends
//     (the midLoop column): a scripting construct or an event or style
//     statement, directly or in a function it calls, over the module's
//     call graph; and a call of a `sequential` or external function, or
//     of a name neither the module nor the library table declares (a
//     host or imported function, whose effects only a binding knows).
//     Pushdown moves a conjunct from "tested per tuple" to "tested when
//     the domain is computed"; under scripting snapshots the domain is
//     computed before the first tuple, so an update the body applied
//     mid-loop would no longer be seen;
//   - a conjunct that reads the surrounding focus (EffReadsFocus) is not
//     pushed down: in a predicate the focus is each candidate.

// Stats counts the optimizer's rewrites.
type Stats = ast.RewriteStats

// Optimize rewrites e bottom-up, accumulating rewrite counts into st
// (which may be nil). It knows no module, so every call outside the
// library counts as one that may change the documents mid-loop.
func Optimize(e ast.Expr, st *Stats) ast.Expr {
	if st == nil {
		st = &Stats{}
	}
	o := &optimizer{st: st, in: &inference{}}
	return o.expr(e)
}

// Prepare is the module's one planning pass, run through
// Module.EnsurePlanned: the static properties of the module's functions
// (props.go), Annotate, then the optimizer over the module body and
// every function body, installed as the module's second set of roots,
// and the module's effect summary. A unit containing scripting
// constructs keeps its planned tree only (Optimized stays nil).
func Prepare(m *ast.Module) {
	in := newInference(m)
	in.solveAll()
	annotate(m, in)
	o := &optimizer{st: &m.Rewrites, in: in}
	for i := range m.Prolog.Functions {
		if body := m.Prolog.Functions[i].Body; body != nil && in.recs[i].body&ast.EffScripting == 0 {
			m.Prolog.Functions[i].Optimized = o.expr(body)
		}
	}
	body := in.infer(m.Body).eff
	if m.Body != nil && body&ast.EffScripting == 0 {
		m.Optimized = o.expr(m.Body)
	}
	for _, v := range m.Prolog.Vars {
		body |= in.infer(v.Init).eff
	}
	m.Effects = body
}

type optimizer struct {
	st       *Stats
	flattens int        // FLWOR levels merged: the one rewrite Stats does not count
	in       *inference // the static properties of the unit's expressions
}

// expr returns e optimized — e itself where no rewrite fired under it,
// so the optimized roots share with the planned ones every subtree the
// optimizer left alone (a cached module holds one tree and a few
// differences, not two trees).
func (o *optimizer) expr(e ast.Expr) ast.Expr {
	st, flattens := *o.st, o.flattens
	out := o.rewrite(e)
	if *o.st == st && o.flattens == flattens {
		return e
	}
	return out
}

// rewrite rewrites children first, then tries node-local rewrites.
func (o *optimizer) rewrite(e ast.Expr) ast.Expr {
	e = mapChildren(e, o.expr)
	if lit, ok := o.foldToLiteral(e); ok {
		o.st.Folds++
		return lit
	}
	switch x := e.(type) {
	case ast.If:
		// Dead-branch elimination: a constant condition selects one
		// branch at compile time. FoldBool never succeeds on an
		// expression whose evaluation could error, so the eliminated
		// EBV computation was observationally pure.
		if b, ok := FoldBool(x.Cond); ok {
			o.st.Folds++
			if b {
				return x.Then
			}
			return x.Else
		}
		return x
	case ast.FLWOR:
		return o.flwor(x)
	}
	return e
}

// foldToLiteral replaces a foldable subtree with its literal form. It
// refuses trees that are already literal-shaped (nothing to gain) and
// and/or operators with only one foldable side (the walker would still
// evaluate the other side's EBV, which can error — folding it away
// would change error behaviour).
func (o *optimizer) foldToLiteral(e ast.Expr) (ast.Expr, bool) {
	switch x := e.(type) {
	case ast.IntLit, ast.DoubleLit, ast.StringLit, ast.DecimalLit,
		ast.VarRef, ast.ContextItem:
		return nil, false
	case ast.SeqExpr:
		if len(x.Items) == 0 {
			return nil, false
		}
	case ast.FuncCall:
		if x.Name.Space == fnSpace && len(x.Args) == 0 &&
			(x.Name.Local == "true" || x.Name.Local == "false") {
			return nil, false
		}
	case ast.Binary:
		if x.Op == "and" || x.Op == "or" {
			if _, lok := FoldBool(x.L); !lok {
				return nil, false
			}
			if _, rok := FoldBool(x.R); !rok {
				return nil, false
			}
		}
	}
	v, ok := Fold(e)
	if !ok {
		return nil, false
	}
	switch v.Kind {
	case ConstInt:
		return ast.IntLit{Val: v.I}, true
	case ConstFloat:
		return ast.DoubleLit{Val: v.F}, true
	case ConstString:
		return ast.StringLit{Val: v.S}, true
	case ConstBool:
		name := "false"
		if v.B {
			name = "true"
		}
		return ast.FuncCall{Name: dom.QName{Space: fnSpace, Local: name}}, true
	case ConstEmpty:
		return ast.SeqExpr{}, true
	}
	return nil, false
}

// --- FLWOR rewrites ----------------------------------------------------------

func (o *optimizer) flwor(f ast.FLWOR) ast.FLWOR {
	f = o.flatten(f)
	if o.in.infer(f).eff&midLoop != 0 {
		return f
	}
	conj := andConjuncts(f.Where)
	conj, f.Join = o.detectJoin(f, conj)
	if f.Join != nil {
		o.st.Joins++
	} else {
		conj, f.Clauses = o.pushdown(f.Clauses, conj)
	}
	slots := 0 // of the FLWOR's ast.Hoisted, lets first
	f.Clauses = o.hoistLets(f.Clauses, &slots)
	conj = o.hoistConjuncts(f.Clauses, conj, &slots)
	f.Where = andChain(conj)
	return f
}

// flatten merges `for $a in E return for $b in F return R` into one
// clause list. Binding order, evaluation order and shadowing are
// identical between the nested and the flat form, so the rewrite is
// unconditional as long as neither level sorts (order by changes when
// tuples are collected) and the outer level has no filter of its own.
// A level the planner annotated for shipping stays a FLWOR of its own:
// its plan speaks for exactly its clauses, so it can neither move onto
// the merged FLWOR nor be dropped with the level. The inner level was
// optimized first (bottom-up), and what it hoisted was invariant across
// its own tuples only — of the merged FLWOR's entry it may be anything —
// so its marks come off and the merged FLWOR decides afresh.
func (o *optimizer) flatten(f ast.FLWOR) ast.FLWOR {
	for f.Where == nil && len(f.OrderBy) == 0 && f.Join == nil && f.Ship == nil {
		inner, ok := f.Return.(ast.FLWOR)
		if !ok || len(inner.OrderBy) != 0 || inner.Join != nil || inner.Ship != nil {
			break
		}
		clauses := make([]ast.Clause, 0, len(f.Clauses)+len(inner.Clauses))
		clauses = append(clauses, f.Clauses...)
		for _, cl := range inner.Clauses {
			cl.In = o.unhoist(cl.In)
			clauses = append(clauses, cl)
		}
		conj := andConjuncts(inner.Where)
		for i := range conj {
			conj[i] = o.unhoist(conj[i])
		}
		f = ast.FLWOR{Clauses: clauses, Where: andChain(conj), Return: inner.Return}
		o.flattens++
	}
	return f
}

// unhoist takes a hoist mark, and its count, back.
func (o *optimizer) unhoist(e ast.Expr) ast.Expr {
	if h, ok := e.(ast.Hoisted); ok {
		o.st.Hoists--
		return h.X
	}
	return e
}

// andConjuncts splits a where expression on top-level `and` into its
// conjuncts, in evaluation order.
func andConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(ast.Binary); ok && b.Op == "and" {
		return append(andConjuncts(b.L), andConjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// andChain rebuilds a left-associated and-chain (the evaluation order
// of the conjunct list).
func andChain(conj []ast.Expr) ast.Expr {
	if len(conj) == 0 {
		return nil
	}
	e := conj[0]
	for _, c := range conj[1:] {
		e = ast.Binary{Op: "and", L: e, R: c}
	}
	return e
}

// detectJoin looks for a hash-joinable leading conjunct: the last
// clause is a plain for (no position variable, no type), its binding
// sequence is pure and independent of every earlier clause, and the
// first where conjunct equates a key over that clause's variable with
// a key over earlier scope only. Restricting to the leading conjunct
// and the last clause keeps evaluation order — and therefore error
// and effect order — identical to the nested loop it replaces.
func (o *optimizer) detectJoin(f ast.FLWOR, conj []ast.Expr) ([]ast.Expr, *ast.JoinPlan) {
	j := len(f.Clauses) - 1
	if len(conj) == 0 || j < 1 {
		return conj, nil
	}
	cl := f.Clauses[j]
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil {
		return conj, nil
	}
	hasForBefore := false
	for _, pc := range f.Clauses[:j] {
		if pc.For {
			hasForBefore = true
			break
		}
	}
	if !hasForBefore {
		return conj, nil
	}
	earlier := boundVarSet(f.Clauses[:j])
	if !o.in.pure(cl.In) || mentionsVars(cl.In, earlier) {
		return conj, nil
	}
	cmp, ok := conj[0].(ast.Compare)
	if !ok {
		return conj, nil
	}
	inner := map[string]bool{vkey(cl.Var): true}
	var plan *ast.JoinPlan
	switch {
	case cmp.Kind == ast.ValueComp && cmp.Op == "eq":
		// eq: the inner side must be a bare key path over the clause
		// variable; the outer side may be any pure expression over
		// earlier scope.
		outerOK := func(e ast.Expr) bool { return o.in.pure(e) && !mentionsVars(e, inner) }
		if isVarKey(cmp.L, cl.Var) && outerOK(cmp.R) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, ValueEq: true, Pred: cmp}
		} else if isVarKey(cmp.R, cl.Var) && outerOK(cmp.L) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.L, InnerKey: cmp.R, ValueEq: true, OuterLeft: true, Pred: cmp}
		}
	case cmp.Kind == ast.GeneralComp && cmp.Op == "=":
		// =: existential; both sides must be bare key paths so the
		// key atoms are nodes' untyped values (string-comparable).
		lroot, lok := varKeyRoot(cmp.L)
		rroot, rok := varKeyRoot(cmp.R)
		if lok && rok {
			if lroot.Matches(cl.Var) && !rroot.Matches(cl.Var) {
				plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, Pred: cmp}
			} else if rroot.Matches(cl.Var) && !lroot.Matches(cl.Var) {
				plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.L, InnerKey: cmp.R, OuterLeft: true, Pred: cmp}
			}
		}
	}
	if plan == nil {
		return conj, nil
	}
	return conj[1:], plan
}

// isVarKey reports whether e is $v or a predicate-free axis path
// rooted at $v — the shapes whose evaluation depends on nothing but
// the one variable.
func isVarKey(e ast.Expr, v dom.QName) bool {
	root, ok := varKeyRoot(e)
	return ok && root.Matches(v)
}

// varKeyRoot matches $x or $x/axis-step/... (predicate-free, no mid-
// path primaries) and returns the root variable.
func varKeyRoot(e ast.Expr) (dom.QName, bool) {
	if vr, ok := e.(ast.VarRef); ok {
		return vr.Name, true
	}
	p, ok := e.(ast.Path)
	if !ok || p.Absolute || len(p.Steps) == 0 {
		return dom.QName{}, false
	}
	vr, ok := p.Steps[0].Primary.(ast.VarRef)
	if !ok || len(p.Steps[0].Preds) != 0 {
		return dom.QName{}, false
	}
	for _, s := range p.Steps[1:] {
		if s.Primary != nil || len(s.Preds) != 0 {
			return dom.QName{}, false
		}
	}
	return vr.Name, true
}

// pushdown moves leading where conjuncts into the last clause's path
// as trailing predicates, repeating while the new leading conjunct
// qualifies. Only the leading conjunct may move: where conjuncts
// short-circuit left to right, so a later conjunct must not run (or
// error) for a tuple an earlier one rejected. The last clause must be
// a plain for over an axis-ended path, and the rewritten conjunct must
// stay boolean-valued (a numeric predicate would turn positional).
func (o *optimizer) pushdown(clauses []ast.Clause, conj []ast.Expr) ([]ast.Expr, []ast.Clause) {
	if len(clauses) == 0 {
		return conj, clauses
	}
	last := len(clauses) - 1
	cl := clauses[last]
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil {
		return conj, clauses
	}
	p, ok := cl.In.(ast.Path)
	if !ok || len(p.Steps) == 0 || p.Steps[len(p.Steps)-1].Primary != nil {
		return conj, clauses
	}
	var pushed []ast.Expr
	for len(conj) > 0 {
		if o.in.infer(conj[0]).eff&ast.EffReadsFocus != 0 {
			break // in a predicate the focus is each candidate
		}
		pred, ok := rewriteForPushdown(conj[0], cl.Var)
		if !ok || !o.in.infer(pred).boolean {
			break
		}
		pushed = append(pushed, pred)
		conj = conj[1:]
		o.st.Pushdowns++
	}
	if len(pushed) == 0 {
		return conj, clauses
	}
	// Copy the spine: fresh steps slice, fresh last step with the new
	// predicates and their plans appended and its access method chosen
	// again (an [@id = "v"] predicate can upgrade the step to an id
	// probe). The predicates the step already had keep the plans the
	// module's planner gave them.
	steps := make([]ast.Step, len(p.Steps))
	copy(steps, p.Steps)
	lastStep := steps[len(steps)-1]
	preds := make([]ast.Expr, 0, len(lastStep.Preds)+len(pushed))
	preds = append(preds, lastStep.Preds...)
	plans := make([]ast.PredPlan, len(lastStep.Preds), cap(preds))
	copy(plans, lastStep.PredPlans)
	for _, pr := range pushed {
		pp := o.in.classifyPred(pr)
		if _, isVar := pp.Key.(ast.VarRef); isVar {
			// The optimizer sees one unit, not the module, so it cannot
			// rule out that something assigns the variable.
			pp = ast.PredPlan{Kind: ast.PredStream}
		}
		preds, plans = append(preds, pr), append(plans, pp)
	}
	lastStep.Preds, lastStep.PredPlans = preds, plans
	lastStep.Access = chooseAccess(&lastStep)
	steps[len(steps)-1] = lastStep
	out := make([]ast.Clause, len(clauses))
	copy(out, clauses)
	out[last].In = ast.Path{Absolute: p.Absolute, Steps: steps}
	return conj, out
}

// rewriteForPushdown rewrites a where conjunct over $v into a path
// predicate over the candidate node: $v becomes `.` (a context-item
// path root). The caller has refused a conjunct that reads the
// surrounding focus; ok is false when the conjunct cannot move for
// another reason — it calls position() or last(), contains a path not
// rooted at a variable, binds variables of its own, or has a shape the
// rewriter does not understand.
func rewriteForPushdown(e ast.Expr, v dom.QName) (ast.Expr, bool) {
	switch x := e.(type) {
	case nil:
		return nil, true
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit:
		return e, true
	case ast.VarRef:
		if x.Name.Matches(v) {
			return ast.ContextItem{}, true
		}
		return e, true
	case ast.SeqExpr:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			r, ok := rewriteForPushdown(it, v)
			if !ok {
				return nil, false
			}
			items[i] = r
		}
		return ast.SeqExpr{Items: items}, true
	case ast.FuncCall:
		if x.Name.Local == "position" || x.Name.Local == "last" {
			return nil, false
		}
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			r, ok := rewriteForPushdown(a, v)
			if !ok {
				return nil, false
			}
			args[i] = r
		}
		return ast.FuncCall{Name: x.Name, Args: args, At: x.At}, true
	case ast.If:
		c, ok1 := rewriteForPushdown(x.Cond, v)
		t, ok2 := rewriteForPushdown(x.Then, v)
		el, ok3 := rewriteForPushdown(x.Else, v)
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		return ast.If{Cond: c, Then: t, Else: el, At: x.At}, true
	case ast.Binary:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Binary{Op: x.Op, L: l, R: r}, true
	case ast.Compare:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Compare{Op: x.Op, Kind: x.Kind, L: l, R: r}, true
	case ast.Unary:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.Unary{Neg: x.Neg, X: r}, true
	case ast.Range:
		l, ok1 := rewriteForPushdown(x.L, v)
		r, ok2 := rewriteForPushdown(x.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.Range{L: l, R: r}, true
	case ast.InstanceOf:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.InstanceOf{X: r, Type: x.Type}, true
	case ast.TreatAs:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.TreatAs{X: r, Type: x.Type}, true
	case ast.CastAs:
		r, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		return ast.CastAs{X: r, Type: x.Type, Optional: x.Optional, Castable: x.Castable}, true
	case ast.Path:
		if x.Absolute || len(x.Steps) == 0 || x.Steps[0].Primary == nil {
			return nil, false // rooted at the outer focus
		}
		first := x.Steps[0]
		steps := make([]ast.Step, len(x.Steps))
		copy(steps, x.Steps)
		switch prim := first.Primary.(type) {
		case ast.VarRef:
			if prim.Name.Matches(v) {
				if len(first.Preds) == 0 && len(steps) > 1 {
					// `$v/rest` over the candidate node is just `rest`:
					// dropping the root step (rather than rewriting it
					// to `.`) keeps the predicate a plain axis path —
					// the shape the id-index planner recognises, so
					// [@id = "v"] pushdowns upgrade to id probes.
					steps = steps[1:]
				} else {
					steps[0].Primary = ast.ContextItem{}
				}
			}
		default:
			return nil, false
		}
		// Step predicates have their own focus, so `.`, position() and
		// last() inside them are local — but a mention of $v inside a
		// predicate would need the outer binding we are eliminating.
		vset := map[string]bool{vkey(v): true}
		for _, s := range x.Steps {
			for _, pr := range s.Preds {
				if mentionsVars(pr, vset) {
					return nil, false
				}
			}
			if s.Primary != nil && s.Primary != first.Primary {
				return nil, false
			}
		}
		for i := 1; i < len(steps); i++ {
			if steps[i].Primary != nil {
				return nil, false
			}
		}
		return ast.Path{Absolute: false, Steps: steps}, true
	case ast.FTContains:
		// `$v ftcontains S` becomes `. ftcontains S` over the candidate
		// node. Rewriting matters beyond generality: the planned
		// predicate is exactly the shape chooseAccess upgrades to an
		// AccessFT posting-list probe when the sources are literals.
		cx, ok := rewriteForPushdown(x.X, v)
		if !ok {
			return nil, false
		}
		sel, ok := rewriteFTForPushdown(x.Sel, v)
		if !ok {
			return nil, false
		}
		return ast.FTContains{X: cx, Sel: sel}, true
	}
	return nil, false
}

// rewriteFTForPushdown rewrites the word sources of a full-text
// selection for predicate pushdown (see rewriteForPushdown).
func rewriteFTForPushdown(sel ast.FTSelection, v dom.QName) (ast.FTSelection, bool) {
	switch s := sel.(type) {
	case ast.FTWords:
		src, ok := rewriteForPushdown(s.Source, v)
		if !ok {
			return nil, false
		}
		return ast.FTWords{Source: src, AnyAll: s.AnyAll, Opts: s.Opts}, true
	case ast.FTAnd:
		l, ok1 := rewriteFTForPushdown(s.L, v)
		r, ok2 := rewriteFTForPushdown(s.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.FTAnd{L: l, R: r}, true
	case ast.FTOr:
		l, ok1 := rewriteFTForPushdown(s.L, v)
		r, ok2 := rewriteFTForPushdown(s.R, v)
		if !ok1 || !ok2 {
			return nil, false
		}
		return ast.FTOr{L: l, R: r}, true
	case ast.FTNot:
		x, ok := rewriteFTForPushdown(s.X, v)
		if !ok {
			return nil, false
		}
		return ast.FTNot{X: x}, true
	default:
		return nil, false
	}
}

// hoistLets wraps loop-invariant let bindings (pure, independent of
// every iteration-variant variable bound earlier, with at least one
// for clause in front) in ast.Hoisted.
func (o *optimizer) hoistLets(clauses []ast.Clause, slots *int) []ast.Clause {
	variant := map[string]bool{}
	sawFor := false
	var out []ast.Clause
	for i, cl := range clauses {
		if cl.For {
			sawFor = true
			variant[vkey(cl.Var)] = true
			if !cl.PosVar.IsZero() {
				variant[vkey(cl.PosVar)] = true
			}
			continue
		}
		pure := o.in.pure(cl.In)
		if sawFor && pure && !mentionsVars(cl.In, variant) {
			if out == nil {
				out = make([]ast.Clause, len(clauses))
				copy(out, clauses)
			}
			out[i].In = ast.Hoisted{X: cl.In, Slot: *slots}
			*slots++
			o.st.Hoists++
			continue
		}
		if !pure || mentionsVars(cl.In, variant) {
			variant[vkey(cl.Var)] = true
		}
	}
	if out == nil {
		return clauses
	}
	return out
}

// hoistConjuncts wraps loop-invariant where conjuncts in ast.Hoisted;
// the evaluator memoises their EBV at first use, so a zero-iteration
// loop still never evaluates them.
func (o *optimizer) hoistConjuncts(clauses []ast.Clause, conj []ast.Expr, slots *int) []ast.Expr {
	hasFor := false
	for _, cl := range clauses {
		if cl.For {
			hasFor = true
			break
		}
	}
	if !hasFor || len(conj) == 0 {
		return conj
	}
	bound := boundVarSet(clauses)
	var out []ast.Expr
	for i, c := range conj {
		if o.in.pure(c) && !mentionsVars(c, bound) {
			if out == nil {
				out = make([]ast.Expr, len(conj))
				copy(out, conj)
			}
			out[i] = ast.Hoisted{X: c, Slot: *slots}
			*slots++
			o.st.Hoists++
		}
	}
	if out == nil {
		return conj
	}
	return out
}

func boundVarSet(clauses []ast.Clause) map[string]bool {
	s := map[string]bool{}
	for _, cl := range clauses {
		s[vkey(cl.Var)] = true
		if !cl.PosVar.IsZero() {
			s[vkey(cl.PosVar)] = true
		}
	}
	return s
}

func vkey(n dom.QName) string { return n.Space + "#" + n.Local }

// mentionsVars reports whether e references any variable in vars.
// Shadowing is ignored (a shadowed mention still answers true), which
// errs on the safe side: the optimizer merely skips a rewrite.
func mentionsVars(e ast.Expr, vars map[string]bool) bool {
	return len(vars) > 0 && contains(e, func(x ast.Expr) bool {
		v, ok := x.(ast.VarRef)
		return ok && vars[vkey(v.Name)]
	})
}

// contains reports whether is holds for e or for anything under it,
// word sources of full-text selections, hoisted operands and join
// annotations included (eachChild).
func contains(e ast.Expr, is func(ast.Expr) bool) bool {
	if e == nil {
		return false
	}
	if is(e) {
		return true
	}
	found := false
	eachChild(e, func(c ast.Expr) { found = found || contains(c, is) })
	return found
}

// --- copy-based child rewriting ---------------------------------------------

// mapChildren rebuilds e with f applied to every child expression: the
// copying walk the planner and the optimizer share. Every node kind
// with children is descended into — a path worth planning or a FLWOR
// worth optimizing can hide anywhere — and each case constructs a fresh
// node, steps and predicate lists included, so the caller may write to
// what it gets back; a FLWOR's or call's shipping plan stays on the
// copy (it is text, good for whatever f makes of the children), and so
// do the adoption marks of constructors, insert and replace (no rewrite
// of a fresh operand — a fold to a literal, a branch chosen at compile
// time — makes it less fresh; a DirElem copy shares the Adopt list, so
// write to a new one). Children are mapped in evaluation order, a
// FLWOR's clauses first. Word sources of a full-text selection are not
// children here (the planner maps them itself, see planner.ftSel).
func mapChildren(e ast.Expr, f func(ast.Expr) ast.Expr) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case ast.SeqExpr:
		items := make([]ast.Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = f(it)
		}
		return ast.SeqExpr{Items: items}
	case ast.Ordered:
		return ast.Ordered{X: f(x.X)}
	case ast.FuncCall:
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = f(a)
		}
		return ast.FuncCall{Name: x.Name, Args: args, At: x.At, Ship: x.Ship}
	case ast.If:
		return ast.If{Cond: f(x.Cond), Then: f(x.Then), Else: f(x.Else), At: x.At}
	case ast.FLWOR:
		clauses := make([]ast.Clause, len(x.Clauses))
		copy(clauses, x.Clauses)
		for i := range clauses {
			clauses[i].In = f(clauses[i].In)
		}
		orderBy := make([]ast.OrderSpec, len(x.OrderBy))
		copy(orderBy, x.OrderBy)
		for i := range orderBy {
			orderBy[i].Key = f(orderBy[i].Key)
		}
		out := ast.FLWOR{Clauses: clauses, OrderBy: orderBy, Return: f(x.Return), Ship: x.Ship}
		if x.Where != nil {
			out.Where = f(x.Where)
		}
		if len(out.OrderBy) == 0 {
			out.OrderBy = nil
		}
		return out
	case ast.Quantified:
		vars := make([]ast.Clause, len(x.Vars))
		copy(vars, x.Vars)
		for i := range vars {
			vars[i].In = f(vars[i].In)
		}
		return ast.Quantified{Every: x.Every, Vars: vars, Satisfies: f(x.Satisfies)}
	case ast.Typeswitch:
		cases := make([]ast.TypeswitchCase, len(x.Cases))
		copy(cases, x.Cases)
		for i := range cases {
			cases[i].Body = f(cases[i].Body)
		}
		return ast.Typeswitch{Operand: f(x.Operand), Cases: cases,
			DefaultVar: x.DefaultVar, Default: f(x.Default), At: x.At}
	case ast.Binary:
		return ast.Binary{Op: x.Op, L: f(x.L), R: f(x.R)}
	case ast.Compare:
		return ast.Compare{Op: x.Op, Kind: x.Kind, L: f(x.L), R: f(x.R)}
	case ast.Unary:
		return ast.Unary{Neg: x.Neg, X: f(x.X)}
	case ast.Range:
		return ast.Range{L: f(x.L), R: f(x.R)}
	case ast.InstanceOf:
		return ast.InstanceOf{X: f(x.X), Type: x.Type}
	case ast.TreatAs:
		return ast.TreatAs{X: f(x.X), Type: x.Type}
	case ast.CastAs:
		return ast.CastAs{X: f(x.X), Type: x.Type, Optional: x.Optional, Castable: x.Castable}
	case ast.Path:
		steps := make([]ast.Step, len(x.Steps))
		copy(steps, x.Steps)
		for i := range steps {
			if steps[i].Primary != nil {
				steps[i].Primary = f(steps[i].Primary)
			}
			if len(steps[i].Preds) > 0 {
				preds := make([]ast.Expr, len(steps[i].Preds))
				for k, pr := range steps[i].Preds {
					preds[k] = f(pr)
				}
				steps[i].Preds = preds
			}
		}
		return ast.Path{Absolute: x.Absolute, Steps: steps}
	case ast.DirElem:
		attrs := make([]ast.DirAttr, len(x.Attrs))
		copy(attrs, x.Attrs)
		for i := range attrs {
			pieces := make([]ast.Expr, len(attrs[i].Pieces))
			for k, p := range attrs[i].Pieces {
				pieces[k] = f(p)
			}
			attrs[i].Pieces = pieces
		}
		content := make([]ast.Expr, len(x.Content))
		for i, c := range x.Content {
			content[i] = f(c)
		}
		return ast.DirElem{Name: x.Name, Attrs: attrs, Content: content, Adopt: x.Adopt}
	case ast.CompConstructor:
		return ast.CompConstructor{Kind: x.Kind, Name: x.Name,
			NameExpr: f(x.NameExpr), Content: f(x.Content), Adopt: x.Adopt}
	case ast.Insert:
		return ast.Insert{Source: f(x.Source), Target: f(x.Target), Pos: x.Pos, At: x.At, Adopt: x.Adopt}
	case ast.Delete:
		return ast.Delete{Target: f(x.Target), At: x.At}
	case ast.Replace:
		return ast.Replace{ValueOf: x.ValueOf, Target: f(x.Target), With: f(x.With), At: x.At, Adopt: x.Adopt}
	case ast.Rename:
		return ast.Rename{Target: f(x.Target), NewName: f(x.NewName), At: x.At}
	case ast.Transform:
		bindings := make([]ast.Clause, len(x.Bindings))
		copy(bindings, x.Bindings)
		for i := range bindings {
			bindings[i].In = f(bindings[i].In)
		}
		return ast.Transform{Bindings: bindings, Modify: f(x.Modify), Return: f(x.Return), At: x.At}
	case ast.Block:
		stmts := make([]ast.Expr, len(x.Stmts))
		for i, s := range x.Stmts {
			stmts[i] = f(s)
		}
		return ast.Block{Stmts: stmts}
	case ast.BlockDecl:
		return ast.BlockDecl{Var: x.Var, Type: x.Type, Init: f(x.Init), At: x.At}
	case ast.Assign:
		return ast.Assign{Var: x.Var, Val: f(x.Val), At: x.At}
	case ast.While:
		return ast.While{Cond: f(x.Cond), Body: f(x.Body), At: x.At}
	case ast.Exit:
		return ast.Exit{With: f(x.With), At: x.At}
	case ast.EventAttach:
		return ast.EventAttach{Event: f(x.Event), Target: f(x.Target),
			Behind: x.Behind, Listener: x.Listener, At: x.At}
	case ast.EventDetach:
		return ast.EventDetach{Event: f(x.Event), Target: f(x.Target),
			Listener: x.Listener, At: x.At}
	case ast.EventTrigger:
		return ast.EventTrigger{Event: f(x.Event), Target: f(x.Target), At: x.At}
	case ast.SetStyle:
		return ast.SetStyle{Prop: f(x.Prop), Target: f(x.Target), Value: f(x.Value), At: x.At}
	case ast.GetStyle:
		return ast.GetStyle{Prop: f(x.Prop), Target: f(x.Target), At: x.At}
	case ast.FTContains:
		return ast.FTContains{X: f(x.X), Sel: x.Sel}
	default:
		// Literals, VarRef, ContextItem, Break, Continue, Hoisted (not
		// produced by parsers) and anything future: leave untouched.
		return e
	}
}
