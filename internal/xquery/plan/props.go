package plan

import "repro/internal/xquery/ast"

// Static properties. Every static decision the planner and the
// optimizer make about an expression — may it move, be memoised, be
// shipped, have its nodes adopted; may a stored query read a revision in
// place — reads one record, which infer computes bottom-up: effect bits
// (ast.Effects), a result kind and whether the value can be a numeric
// singleton. Children are reached through ast.EachChild, calls are answered
// from the library table (library.go) or from the record of the module's
// own function, and those records are one least fixpoint over the call
// graph (newInference). Each consumer reads a mask over the record —
// the columns below; DESIGN.md §5r has the table. A bit is
// conservative: set means "can". A node kind the switch does not know
// sets every bit, which is "impure, opaque, never shipped, changes the
// documents" to every consumer at once.

// The columns.
const (
	// unmovable keeps the optimizer from moving, memoising or
	// join-building an expression: it is pure when none is set.
	unmovable = ast.EffUpdates | ast.EffWrites | ast.EffScripting | ast.EffScriptedCall |
		ast.EffSequentialCall | ast.EffActsAtOnce | ast.EffOpaqueCall | ast.EffModuleCall |
		ast.EffImpure | ast.EffScores | ast.EffConstructs
	// unshippable keeps an expression from a source that evaluates it for
	// a remote caller: the same, except recording scores nobody there
	// reads, and reading a resolver, which there is the source's, not
	// the run's.
	unshippable = unmovable&^ast.EffScores | ast.EffResolves
	// midLoop: evaluating the expression can change the documents before
	// a loop around it ends.
	midLoop = ast.EffScripting | ast.EffScriptedCall | ast.EffSequentialCall |
		ast.EffActsAtOnce | ast.EffOpaqueCall
	// calleeSees is what of a function body a call to it does. The body
	// reads a focus of its own, and position and last are matched by
	// mention; its scripting shows as EffScriptedCall.
	calleeSees = ^(ast.EffScripting | ast.EffReadsFocus | ast.EffReadsPosition | ast.EffReadsLast)
	// scoreReaders: an expression can read the full-text scores a run
	// records — ft:score, or a call whose callee only a binding knows
	// (ReadsScores).
	scoreReaders = ast.EffReadsScores | ast.EffOpaqueCall
	// stepVariant keeps an expression from keying a step (stepInvariant):
	// its value could differ between two candidates of one step
	// evaluation, or reading it once could do what reading it per
	// candidate would not.
	stepVariant = unmovable | ast.EffResolves | ast.EffReadsFocus | ast.EffReadsPosition | ast.EffReadsLast
)

// props is the record of one expression.
type props struct {
	eff  ast.Effects
	kind resultKind
	// boolean: the value is never a numeric singleton, so as a predicate
	// it is never positional. Read off the expression's own shape.
	boolean bool
}

type resultKind uint8

const (
	kindUnknown resultKind = iota
	kindAtomic             // every item an atomic value, by construction
	kindNode               // a path ending in an axis step
)

// funcKey identifies a declared function.
type funcKey struct {
	space, local string
	arity        int
}

// funcProps is the record of the module's declaration of one name and
// arity (the parser lets a prolog declare it once), as a call sees it.
type funcProps struct {
	eff   ast.Effects
	body  ast.Effects // this declaration's body
	fresh bool        // every node a call returns was built for it (fresh.go)
	decl  int         // the declaration's index in the prolog
	// The fixpoint's bookkeeping (Tarjan's): index is 0 until a call
	// first needs the record; low is the lowest index reachable; a
	// recursive record was reached while it was being solved (which only
	// a singleton component needs told).
	index, low      int
	done, recursive bool
}

// inference answers for the expressions of one module.
type inference struct {
	fns   []ast.FuncDecl
	recs  []funcProps            // one per declaration
	funcs map[funcKey]*funcProps // into recs; nil: no module in sight, every call off the library is opaque
	// vars is the module's binding table (bind.go); nil: no module in
	// sight, and every variable counts as assigned.
	vars ast.Bindings
	// letFresh has bit id set for the let variables with a fresh value,
	// as far as fresh and the planner have judged their clauses; its
	// first backing is small, which most modules need no more than.
	letFresh []uint64
	small    [2]uint64
	kids     []props   // scratch: the children of the expressions being inferred
	buf      [16]props // kids' first backing: most modules need no more
	// The fixpoint's stacks: records whose component is not solved yet,
	// and the records whose bodies are being inferred, innermost last.
	stack, active []*funcProps
	next          int
}

// newInference sets up the records of the module's functions. Each is
// solved when a call first needs it: the least fixpoint from "does
// nothing, returns nothing fresh", so recursion alone convicts nothing
// and proves nothing fresh, computed one strongly connected component
// of the call graph at a time — a function that calls no function still
// being solved is inferred once, and a recursive component until its
// records stop changing. The binding table is the module's, or
// one worked out here for a module nobody prepared.
func newInference(m *ast.Module) *inference {
	in := &inference{fns: m.Prolog.Functions, vars: m.Bindings}
	if in.vars == nil {
		in.vars = Bind(m)
	}
	if len(in.fns) == 0 {
		return in // most ad-hoc queries: nothing to look up
	}
	in.recs = make([]funcProps, len(in.fns))
	in.funcs = make(map[funcKey]*funcProps, len(in.fns))
	for i := range in.fns {
		in.recs[i].decl = i
		in.funcs[declKey(&in.fns[i])] = &in.recs[i]
	}
	return in
}

func declKey(d *ast.FuncDecl) funcKey { return funcKey{d.Name.Space, d.Name.Local, len(d.Params)} }

// solveAll solves every record, which fills in every body's effects.
func (in *inference) solveAll() {
	for _, f := range in.funcs {
		if f.index == 0 {
			in.solve(f)
		}
	}
}

// function is the record of the module function a call names, or nil.
func (in *inference) function(c ast.FuncCall) *funcProps {
	if in.funcs == nil {
		return nil
	}
	f := in.funcs[funcKey{c.Name.Space, c.Name.Local, len(c.Args)}]
	low := 0
	switch {
	case f == nil || f.done:
		return f
	case f.index == 0:
		if in.solve(f); f.done {
			return f
		}
		low = f.low // in the component of a function being solved
	default: // a cycle through the functions being solved
		f.recursive, low = true, f.index
	}
	caller := in.active[len(in.active)-1]
	caller.low = min(caller.low, low)
	return f
}

// solve infers f's bodies and, if f closes its component, iterates the
// component to its fixpoint.
func (in *inference) solve(f *funcProps) {
	in.next++
	f.index, f.low = in.next, in.next
	in.stack = append(in.stack, f)
	in.active = append(in.active, f)
	in.evaluate(f)
	in.active = in.active[:len(in.active)-1]
	if f.low != f.index {
		return
	}
	i := len(in.stack) - 1
	for in.stack[i] != f {
		i--
	}
	scc := in.stack[i:]
	in.stack = in.stack[:i]
	for _, g := range scc {
		g.done = true
	}
	for again := len(scc) > 1 || f.recursive; again; {
		again = false
		for _, g := range scc {
			eff, fresh := g.eff, g.fresh
			in.evaluate(g)
			again = again || g.eff != eff || g.fresh != fresh
		}
	}
}

// evaluate computes f from its declaration's body and the records of
// the functions it calls.
func (in *inference) evaluate(f *funcProps) {
	d := &in.fns[f.decl]
	f.eff |= in.declared(d, f.decl)
	f.fresh = d.Body != nil && in.fresh(d.Body) && in.exitsFresh(d.Body)
}

// declared is what a call to declaration i does.
func (in *inference) declared(d *ast.FuncDecl, i int) ast.Effects {
	eff := ast.EffModuleCall
	if d.Updating {
		eff |= ast.EffUpdates
	}
	if d.Sequential {
		eff |= ast.EffSequentialCall
	}
	if d.External || d.Body == nil {
		return eff | ast.EffOpaqueCall
	}
	body := in.infer(d.Body).eff
	in.recs[i].body = body
	if body&(ast.EffScripting|ast.EffScriptedCall) != 0 {
		eff |= ast.EffScriptedCall
	}
	return eff | body&calleeSees
}

// call is what a call does beyond evaluating its arguments, and whether
// its result is atomic.
func (in *inference) call(c ast.FuncCall) (ast.Effects, bool) {
	var eff ast.Effects
	switch c.Name.Local { // by mention, in any namespace: a false positive costs a rewrite
	case "position":
		eff = ast.EffReadsPosition
	case "last":
		eff = ast.EffReadsLast
	}
	if f := in.function(c); f != nil {
		return eff | f.eff, false
	}
	fns, lib := library[c.Name.Space]
	if !lib {
		return eff | ast.EffOpaqueCall, false
	}
	fn := fns[c.Name.Local]
	switch {
	case fn.resolves:
		eff |= ast.EffResolves
	case !fn.pure:
		eff |= ast.EffImpure
	}
	if fn.writes {
		eff |= ast.EffWrites
	}
	if fn.readsScores {
		eff |= ast.EffReadsScores
	}
	if len(c.Args) < fn.focus {
		eff |= ast.EffReadsFocus
	}
	return eff, fn.atomic
}

// infer computes the record of e from its children's.
func (in *inference) infer(e ast.Expr) props {
	if in.kids == nil {
		in.kids = in.buf[:0]
	}
	base := len(in.kids)
	ast.EachChild(e, func(c ast.Expr) {
		k := in.infer(c) // may solve a function first, which uses the stack above base
		in.kids = append(in.kids, k)
	})
	kids := in.kids[base:]
	var r props
	atomic := true
	for _, k := range kids {
		r.eff |= k.eff
		atomic = atomic && k.kind == kindAtomic
	}
	switch x := e.(type) {
	case nil, ast.VarRef, ast.TreatAs, ast.Typeswitch, ast.Hoisted:
	case ast.StringLit:
		r.kind, r.boolean = kindAtomic, true
	case ast.IntLit, ast.DecimalLit, ast.DoubleLit, ast.Unary, ast.Range:
		r.kind = kindAtomic
	case ast.ContextItem:
		r.eff |= ast.EffReadsFocus
	case ast.SeqExpr, ast.Ordered:
		if atomic {
			r.kind = kindAtomic
		}
	case ast.FuncCall:
		eff, atomic := in.call(x)
		r.eff |= eff
		if atomic {
			r.kind = kindAtomic
		}
	case ast.If: // condition, then, else
		if len(kids) == 3 && kids[1].kind == kindAtomic && kids[2].kind == kindAtomic {
			r.kind = kindAtomic
		}
	case ast.FLWOR: // the return is visited last
		if n := len(kids); n > 0 && kids[n-1].kind == kindAtomic {
			r.kind = kindAtomic
		}
	case ast.Quantified, ast.Compare, ast.InstanceOf:
		r.kind, r.boolean = kindAtomic, true
	case ast.CastAs:
		r.kind, r.boolean = kindAtomic, x.Castable
	case ast.Binary:
		switch x.Op {
		case "union", "intersect", "except":
		default:
			r.kind = kindAtomic
		}
		r.boolean = x.Op == "and" || x.Op == "or"
	case ast.Path:
		// Behind the first step every step and predicate reads a focus of
		// the path's own making.
		r.eff &^= ast.EffReadsFocus
		if x.Absolute || len(x.Steps) > 0 && x.Steps[0].Primary == nil {
			r.eff |= ast.EffReadsFocus
		} else if len(x.Steps) > 0 {
			r.eff |= kids[0].eff & ast.EffReadsFocus // the leading primary, visited first
		}
		if n := len(x.Steps); n > 0 && x.Steps[n-1].Primary == nil {
			r.kind, r.boolean = kindNode, true
		}
	case ast.DirElem, ast.CompConstructor:
		r.eff |= ast.EffConstructs
	case ast.Insert, ast.Delete, ast.Replace, ast.Rename:
		r.eff |= ast.EffUpdates
	case ast.Transform:
		// The modify clause, visited after the bindings, updates copies:
		// the runtime refuses a target outside them.
		r.eff = ast.EffConstructs
		for i, k := range kids {
			if i == len(x.Bindings) {
				k.eff &^= ast.EffUpdates
			}
			r.eff |= k.eff
		}
	case ast.Block, ast.BlockDecl, ast.Assign, ast.While, ast.Break, ast.Continue, ast.Exit:
		r.eff |= ast.EffScripting
	case ast.EventAttach, ast.EventDetach, ast.EventTrigger, ast.SetStyle:
		r.eff |= ast.EffActsAtOnce
	case ast.GetStyle:
		r.eff |= ast.EffImpure
	case ast.FTContains:
		r.eff |= ast.EffScores
		r.kind, r.boolean = kindAtomic, true
	default:
		r.eff = ^ast.Effects(0)
	}
	in.kids = in.kids[:base]
	return r
}

// ReadsScores reports whether running the prepared module m can read
// the full-text scores an ftcontains records: its effect summary
// (ast.Module.Effects, which counts every declared function for this
// bit) has a bit of the scoreReaders column. A run records scores only
// where it can read them.
func ReadsScores(m *ast.Module) bool { return m.Effects&scoreReaders != 0 }

// pure reports whether the optimizer may move, memoise or join-build e.
func (in *inference) pure(e ast.Expr) bool { return in.infer(e).eff&unmovable == 0 }

// stepInvariant reports whether k may key a step's attribute comparison
// (ast.PredAttrCmp): read once per step evaluation, it has the value it
// would have for every candidate. Its record has no bit of the
// stepVariant column, and it reads no variable an assignment targets,
// whose value a statement between two candidates could change.
func (in *inference) stepInvariant(k ast.Expr) bool {
	return in.infer(k).eff&stepVariant == 0 && !contains(k, func(x ast.Expr) bool {
		v, ok := x.(ast.VarRef)
		if !ok {
			return false
		}
		b := in.vars.Of(v.ID)
		return b == nil || b.Assigned
	})
}
