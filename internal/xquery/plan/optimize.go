package plan

import (
	"slices"

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
// Which variable a reference reads is the parser's decision (ast.VarID):
// a rewrite asks whether an expression reads a clause's variable by
// comparing VarIDs, so a same-named variable bound elsewhere never
// blocks one.
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
//     the domain is computed"; such a loop snapshots its domain before
//     the first tuple (the planner leaves its StreamDomain clear), so an
//     update the body applied mid-loop would no longer be seen;
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
// Module.EnsurePlanned: the binding table (bind.go), installed as
// Module.Bindings, the static properties of the module's functions
// (props.go), Annotate, then the optimizer over the module body and
// every function body, installed as the module's second set of roots,
// and the module's effect summary. A unit containing scripting
// constructs keeps its planned tree only (Optimized stays nil).
//
// The summary is the body's and the global initialisers', and
// EffReadsScores where any declared function can read scores: a host
// calls a function by name without the body mentioning it (a listener,
// local:main()), in a run that records scores only if the module can
// read them (ReadsScores).
func Prepare(m *ast.Module) {
	m.Bindings = Bind(m)
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
	for i := range in.recs {
		if in.recs[i].eff&scoreReaders != 0 {
			body |= ast.EffReadsScores
		}
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
	e = ast.MapChildren(e, o.expr)
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
		return ast.NewStringLit(v.S), true
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
		f = ast.FLWOR{Clauses: clauses, Where: andChain(conj), Return: inner.Return, StreamDomain: f.StreamDomain}
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
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil || cl.ID == 0 {
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
	var buf [8]ast.VarID
	if !o.in.pure(cl.In) || reads(cl.In, clauseVars(buf[:0], f.Clauses[:j])) {
		return conj, nil
	}
	cmp, ok := conj[0].(ast.Compare)
	if !ok {
		return conj, nil
	}
	inner := []ast.VarID{cl.ID}
	var plan *ast.JoinPlan
	switch {
	case cmp.Kind == ast.ValueComp && cmp.Op == "eq":
		// eq: the inner side must be a bare key path over the clause
		// variable; the outer side may be any pure expression over
		// earlier scope.
		outerOK := func(e ast.Expr) bool { return o.in.pure(e) && !reads(e, inner) }
		if isVarKey(cmp.L, cl.ID) && outerOK(cmp.R) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, ValueEq: true, Pred: cmp}
		} else if isVarKey(cmp.R, cl.ID) && outerOK(cmp.L) {
			plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.L, InnerKey: cmp.R, ValueEq: true, OuterLeft: true, Pred: cmp}
		}
	case cmp.Kind == ast.GeneralComp && cmp.Op == "=":
		// =: existential; both sides must be bare key paths so the
		// key atoms are nodes' untyped values (string-comparable).
		lroot, lok := varKeyRoot(cmp.L)
		rroot, rok := varKeyRoot(cmp.R)
		if lok && rok && lroot != 0 && rroot != 0 {
			if lroot == cl.ID && rroot != cl.ID {
				plan = &ast.JoinPlan{Clause: j, OuterKey: cmp.R, InnerKey: cmp.L, Pred: cmp}
			} else if rroot == cl.ID && lroot != cl.ID {
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
// the one variable — v being a resolved binding.
func isVarKey(e ast.Expr, v ast.VarID) bool {
	root, ok := varKeyRoot(e)
	return ok && root == v
}

// varKeyRoot matches $x or $x/axis-step/... (predicate-free, no mid-
// path primaries) and returns the root variable's binding.
func varKeyRoot(e ast.Expr) (ast.VarID, bool) {
	if vr, ok := e.(ast.VarRef); ok {
		return vr.ID, true
	}
	p, ok := e.(ast.Path)
	if !ok || p.Absolute || len(p.Steps) == 0 {
		return 0, false
	}
	vr, ok := p.Steps[0].Primary.(ast.VarRef)
	if !ok || len(p.Steps[0].Preds) != 0 {
		return 0, false
	}
	for _, s := range p.Steps[1:] {
		if s.Primary != nil || len(s.Preds) != 0 {
			return 0, false
		}
	}
	return vr.ID, true
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
	if !cl.For || !cl.PosVar.IsZero() || cl.Type != nil || cl.ID == 0 {
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
		pred, ok := rewriteForPushdown(conj[0], cl.ID)
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
		preds, plans = append(preds, pr), append(plans, o.in.classifyPred(pr))
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
// path root) and a path rooted at $v a relative one (pushdownPath);
// every other kind is copied with its children rewritten. The caller
// has refused a conjunct that reads the surrounding focus; ok is false
// when the conjunct cannot move for another reason — it calls
// position() or last(), which in a predicate read the candidate's
// place; it contains a path not rooted at a variable; it reads a
// variable nobody resolved, which could be $v; or it holds a FLWOR,
// whose optimized form keeps operands (ast.Hoisted) this rewrite does
// not enter, or a copy … modify.
func rewriteForPushdown(e ast.Expr, v ast.VarID) (ast.Expr, bool) {
	ok := true
	var rewrite func(ast.Expr) ast.Expr
	rewrite = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case ast.VarRef:
			ok = ok && x.ID != 0
			if x.ID == v {
				return ast.ContextItem{}
			}
			return e
		case ast.Path:
			p, pok := pushdownPath(x, v)
			ok = ok && pok
			return p
		case ast.FuncCall:
			ok = ok && x.Name.Local != "position" && x.Name.Local != "last"
		case ast.FLWOR, ast.Transform:
			ok = false
		}
		if !ok {
			return e
		}
		return ast.MapChildren(e, rewrite)
	}
	out := rewrite(e)
	return out, ok
}

// pushdownPath is rewriteForPushdown of a path: one rooted at $v
// continues from the candidate, one rooted at another variable stays as
// it is, and any other path is refused.
func pushdownPath(x ast.Path, v ast.VarID) (ast.Expr, bool) {
	if x.Absolute || len(x.Steps) == 0 || x.Steps[0].Primary == nil {
		return nil, false // rooted at the outer focus
	}
	first := x.Steps[0]
	steps := make([]ast.Step, len(x.Steps))
	copy(steps, x.Steps)
	switch prim := first.Primary.(type) {
	case ast.VarRef:
		if prim.ID == v {
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
	vset := []ast.VarID{v}
	for _, s := range x.Steps {
		for _, pr := range s.Preds {
			if reads(pr, vset) {
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
}

// hoistLets wraps loop-invariant let bindings (pure, independent of
// every iteration-variant variable bound earlier, with at least one
// for clause in front) in ast.Hoisted.
func (o *optimizer) hoistLets(clauses []ast.Clause, slots *int) []ast.Clause {
	var buf [8]ast.VarID
	variant := buf[:0]
	sawFor := false
	var out []ast.Clause
	for i, cl := range clauses {
		if cl.For {
			sawFor = true
			variant = clauseVars(variant, clauses[i:i+1])
			continue
		}
		pure := o.in.pure(cl.In)
		if sawFor && pure && !reads(cl.In, variant) {
			if out == nil {
				out = make([]ast.Clause, len(clauses))
				copy(out, clauses)
			}
			out[i].In = ast.Hoisted{X: cl.In, Slot: *slots}
			*slots++
			o.st.Hoists++
			continue
		}
		if !pure || reads(cl.In, variant) {
			variant = clauseVars(variant, clauses[i:i+1])
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
	var buf [8]ast.VarID
	bound := clauseVars(buf[:0], clauses)
	var out []ast.Expr
	for i, c := range conj {
		if o.in.pure(c) && !reads(c, bound) {
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

// clauseVars appends the bindings the clauses declare to ids.
func clauseVars(ids []ast.VarID, clauses []ast.Clause) []ast.VarID {
	for _, cl := range clauses {
		for _, id := range [2]ast.VarID{cl.ID, cl.PosID} {
			if id != 0 {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// reads reports whether e reads a variable of ids, or one nobody
// resolved (VarID 0), which could be any of them.
func reads(e ast.Expr, ids []ast.VarID) bool {
	return len(ids) > 0 && contains(e, func(x ast.Expr) bool {
		v, ok := x.(ast.VarRef)
		return ok && (v.ID == 0 || slices.Contains(ids, v.ID))
	})
}

// contains reports whether is holds for e or for anything under it,
// word sources of full-text selections, hoisted operands and join
// annotations included (ast.EachChild).
func contains(e ast.Expr, is func(ast.Expr) bool) bool {
	if e == nil {
		return false
	}
	if is(e) {
		return true
	}
	found := false
	ast.EachChild(e, func(c ast.Expr) { found = found || contains(c, is) })
	return found
}
