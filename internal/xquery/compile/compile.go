// Package compile is the third stage of the query pipeline — plan
// (path access methods) → optimize (algebraic rewrites, plan.Optimize)
// → compile (this package): it lowers the optimized AST to Go closures
// of type func(*Ctx) (xdm.Sequence, error), resolving variable slots,
// function targets and index plans once at compile time instead of on
// every evaluation.
//
// A compiled module is host-independent: it is built once per
// (module, engine shape) and run by every engine of that shape (see
// xquery.Cache). Calls to the module's own functions and to the frozen
// built-in library are bound here, at compile time; a call to a name in
// the engine's host layer (browser:, WithFunctions extras) is compiled
// against the signature only and finds its function in the running
// context's registry, and a call into an imported namespace bridges to
// the walker, because what an import defines is known per binding.
//
// The backend compiles the hot core natively — literals, variable
// reads, sequence/if/FLWOR/comparison/arithmetic/range shapes, and
// calls between compiled user functions — and bridges everything else
// (paths, constructors, updates, quantified/typeswitch, full text,
// browser expressions, streaming-capable built-ins) back into the tree
// walker with a compile-time snapshot of the lexical scope. Bridging
// keeps the walker the single source of semantics for the long tail;
// the differential test harness runs every corpus through both
// backends and asserts identical results and PULs.
//
// Two conservatisms, both per FLUX's treatment of side effects:
// a unit (module body or function body) containing scripting
// constructs (assignment, blocks, while, break/continue, exit) is not
// compiled at all — its variables live in mutable boxes whose writes a
// flat frame could miss — and when a snapshot-applying (sequential)
// context is detected at runtime, hoist memoisation and hash joins
// disable themselves, because updates applied between iterations can
// change what an "invariant" expression sees.
package compile

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
)

// Closure is the compiled form of an expression: eager evaluation in a
// compiled context. Bridged closures delegate to the walker.
type Closure func(*Ctx) (xdm.Sequence, error)

// ebvClosure evaluates to an effective boolean value.
type ebvClosure func(*Ctx) (bool, error)

// itemClosure evaluates and atomizes to at most one item (the walker's
// evalAtomizedOne contract).
type itemClosure func(*Ctx) (xdm.Item, error)

// hoistCell memoises one Hoisted subexpression within one FLWOR entry.
type hoistCell struct {
	valid bool
	seq   xdm.Sequence
	b     bool
}

// Ctx is the compiled execution context: the walker context (focus,
// budget, profiler, PUL — everything a bridge needs) plus the flat
// slot-indexed variable frame and the hoist memo cells of the current
// unit invocation.
type Ctx struct {
	R     *runtime.Context
	frame []xdm.Sequence
	hoist []hoistCell
}

// scopeBinding maps a lexical variable to its frame slot.
type scopeBinding struct {
	name dom.QName
	slot int
}

// rctx builds the walker context for a bridge: the unit's base context
// extended with the scope snapshot, outermost first so the innermost
// binding wins lookup.
func (c *Ctx) rctx(scope []scopeBinding) *runtime.Context {
	if len(scope) == 0 {
		return c.R
	}
	bs := make([]runtime.VarBinding, len(scope))
	for i, s := range scope {
		bs[i] = runtime.VarBinding{Name: s.name, Val: c.frame[s.slot]}
	}
	return c.R.WithBindings(bs)
}

// unit is one compiled compilation unit: the module body or a user
// function body.
type unit struct {
	name   dom.QName
	params []ast.Param
	ret    *xdm.SeqType
	nSlots int
	nHoist int
	body   Closure
}

// Compiled is a fully compiled module, ready to run against walker
// contexts produced by the engine.
type Compiled struct {
	body   Closure // nil when the module has no body
	nSlots int
	nHoist int
	stats  plan.Stats
}

// Stats returns the optimizer's rewrite counts for the whole module.
func (cc *Compiled) Stats() plan.Stats { return cc.stats }

// Run evaluates the compiled module body in ctx. Globals must already
// be initialised (the engine runs InitGlobals through the walker, so
// prolog variable semantics are identical across backends).
func (cc *Compiled) Run(ctx *runtime.Context) (xdm.Sequence, error) {
	if cc.body == nil {
		return nil, nil
	}
	c := &Ctx{R: ctx, frame: make([]xdm.Sequence, cc.nSlots), hoist: make([]hoistCell, cc.nHoist)}
	res, err := cc.body(c)
	if v, ok := ctx.ExitValue(err); ok {
		return v, nil
	}
	return res, err
}

// moduleCompiler holds cross-unit state: the registries calls resolve
// in and the compiled-function table that lets compiled call sites jump
// straight to compiled bodies.
type moduleCompiler struct {
	mod   *ast.Module
	user  *runtime.Registry // the module's own functions
	env   *runtime.Registry // the compiling engine's host layer above the library
	units map[*runtime.Function]*unit
	stats *plan.Stats
}

// resolve classifies a static call. late == false: f is the target in
// every binding (a user function or a library built-in), or nil when no
// engine of this shape can resolve the call. late == true: the target
// belongs to the binding — f is the compiling engine's host function,
// good for its signature only, or nil for a name in an imported
// namespace, about which nothing is known before a binding resolves the
// import.
func (mc *moduleCompiler) resolve(name dom.QName, arity int) (f *runtime.Function, late bool) {
	if f := mc.user.Lookup(name, arity); f != nil {
		return f, false
	}
	if mc.mod.Imports(name.Space) {
		return nil, true
	}
	f, frozen := mc.env.Resolve(name, arity)
	return f, f != nil && !frozen
}

// Compile lowers a module to closures: m with its compiled functions
// user (runtime.CompileFunctions) against env, the compiling engine's
// function chain. It cannot fail: anything it does not understand
// becomes a bridge into the walker, and a module body using scripting
// state is left to the walker entirely (a single whole-body bridge).
func Compile(m *ast.Module, user, env *runtime.Registry) *Compiled {
	mc := &moduleCompiler{mod: m, user: user, env: env,
		units: map[*runtime.Function]*unit{}, stats: &plan.Stats{}}

	// Pass 1: shells, so mutually recursive compiled functions can
	// resolve each other before any body exists.
	type pending struct {
		u    *unit
		decl *ast.FuncDecl
	}
	var todo []pending
	for i := range m.Prolog.Functions {
		d := &m.Prolog.Functions[i]
		if d.External || d.Body == nil || poisoned(d.Body) {
			continue
		}
		f := user.Lookup(d.Name, len(d.Params))
		if f == nil {
			continue
		}
		u := &unit{name: d.Name, params: d.Params, ret: d.ReturnType}
		mc.units[f] = u
		todo = append(todo, pending{u: u, decl: d})
	}

	// Pass 2: bodies, each through the optimizer first.
	for _, pn := range todo {
		uc := &unitCompiler{mc: mc}
		for _, prm := range pn.decl.Params {
			uc.push(prm.Name)
		}
		opt := plan.Optimize(pn.decl.Body, mc.stats)
		pn.u.body = uc.expr(opt)
		pn.u.nSlots, pn.u.nHoist = uc.maxSlots, uc.nHoist
	}

	cc := &Compiled{}
	if m.Body != nil {
		uc := &unitCompiler{mc: mc}
		if poisoned(m.Body) {
			cc.body = uc.bridge(m.Body)
		} else {
			opt := plan.Optimize(m.Body, mc.stats)
			cc.body = uc.expr(opt)
		}
		cc.nSlots, cc.nHoist = uc.maxSlots, uc.nHoist
	}
	cc.stats = *mc.stats
	return cc
}

// poisoned reports whether e contains a scripting construct anywhere:
// such a unit must evaluate wholly in the walker, whose environment
// boxes give assignment its write-through semantics. Unknown node
// kinds answer true (bridge-everything is always safe).
func poisoned(e ast.Expr) bool {
	switch x := e.(type) {
	case nil, ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit,
		ast.VarRef, ast.ContextItem:
		return false
	case ast.Assign, ast.BlockDecl, ast.Block, ast.While, ast.Break, ast.Continue, ast.Exit:
		return true
	case ast.SeqExpr:
		for _, it := range x.Items {
			if poisoned(it) {
				return true
			}
		}
		return false
	case ast.Ordered:
		return poisoned(x.X)
	case ast.Hoisted:
		return poisoned(x.X)
	case ast.FuncCall:
		for _, a := range x.Args {
			if poisoned(a) {
				return true
			}
		}
		return false
	case ast.If:
		return poisoned(x.Cond) || poisoned(x.Then) || poisoned(x.Else)
	case ast.FLWOR:
		for _, cl := range x.Clauses {
			if poisoned(cl.In) {
				return true
			}
		}
		if x.Join != nil && (poisoned(x.Join.OuterKey) || poisoned(x.Join.InnerKey) || poisoned(x.Join.Pred)) {
			return true
		}
		for _, os := range x.OrderBy {
			if poisoned(os.Key) {
				return true
			}
		}
		return poisoned(x.Where) || poisoned(x.Return)
	case ast.Quantified:
		for _, cl := range x.Vars {
			if poisoned(cl.In) {
				return true
			}
		}
		return poisoned(x.Satisfies)
	case ast.Typeswitch:
		if poisoned(x.Operand) || poisoned(x.Default) {
			return true
		}
		for _, cs := range x.Cases {
			if poisoned(cs.Body) {
				return true
			}
		}
		return false
	case ast.Binary:
		return poisoned(x.L) || poisoned(x.R)
	case ast.Compare:
		return poisoned(x.L) || poisoned(x.R)
	case ast.Unary:
		return poisoned(x.X)
	case ast.Range:
		return poisoned(x.L) || poisoned(x.R)
	case ast.InstanceOf:
		return poisoned(x.X)
	case ast.TreatAs:
		return poisoned(x.X)
	case ast.CastAs:
		return poisoned(x.X)
	case ast.Path:
		for _, s := range x.Steps {
			if s.Primary != nil && poisoned(s.Primary) {
				return true
			}
			for _, pr := range s.Preds {
				if poisoned(pr) {
					return true
				}
			}
		}
		return false
	case ast.DirElem:
		for _, a := range x.Attrs {
			for _, p := range a.Pieces {
				if poisoned(p) {
					return true
				}
			}
		}
		for _, ch := range x.Content {
			if poisoned(ch) {
				return true
			}
		}
		return false
	case ast.CompConstructor:
		return poisoned(x.NameExpr) || poisoned(x.Content)
	case ast.Insert:
		return poisoned(x.Source) || poisoned(x.Target)
	case ast.Delete:
		return poisoned(x.Target)
	case ast.Replace:
		return poisoned(x.Target) || poisoned(x.With)
	case ast.Rename:
		return poisoned(x.Target) || poisoned(x.NewName)
	case ast.Transform:
		for _, b := range x.Bindings {
			if poisoned(b.In) {
				return true
			}
		}
		return poisoned(x.Modify) || poisoned(x.Return)
	case ast.EventAttach:
		return poisoned(x.Event) || poisoned(x.Target)
	case ast.EventDetach:
		return poisoned(x.Event) || poisoned(x.Target)
	case ast.EventTrigger:
		return poisoned(x.Event) || poisoned(x.Target)
	case ast.SetStyle:
		return poisoned(x.Prop) || poisoned(x.Target) || poisoned(x.Value)
	case ast.GetStyle:
		return poisoned(x.Prop) || poisoned(x.Target)
	case ast.FTContains:
		return poisoned(x.X)
	default:
		return true
	}
}

// unitCompiler compiles one unit: it owns the lexical scope stack, the
// slot watermark and the hoist-slot counter.
type unitCompiler struct {
	mc       *moduleCompiler
	scope    []scopeBinding
	maxSlots int
	nHoist   int
}

func (u *unitCompiler) push(name dom.QName) int {
	slot := len(u.scope)
	u.scope = append(u.scope, scopeBinding{name: name, slot: slot})
	if slot+1 > u.maxSlots {
		u.maxSlots = slot + 1
	}
	return slot
}

func (u *unitCompiler) popTo(mark int) { u.scope = u.scope[:mark] }

func (u *unitCompiler) lookup(name dom.QName) (int, bool) {
	for i := len(u.scope) - 1; i >= 0; i-- {
		if u.scope[i].name.Matches(name) {
			return u.scope[i].slot, true
		}
	}
	return -1, false
}

func (u *unitCompiler) snapshot() []scopeBinding {
	return append([]scopeBinding(nil), u.scope...)
}

// bridge compiles e as a walker delegation with the current scope
// snapshot. The walker does its own budget and profiler accounting.
func (u *unitCompiler) bridge(e ast.Expr) Closure {
	scope := u.snapshot()
	return func(c *Ctx) (xdm.Sequence, error) {
		return c.rctx(scope).Eval(e)
	}
}

// bridgeEBV is the EBV form of a bridge, preserving the walker's
// streaming EBV (at most two items pulled, lazy error visibility).
func (u *unitCompiler) bridgeEBV(e ast.Expr) ebvClosure {
	scope := u.snapshot()
	return func(c *Ctx) (bool, error) {
		return c.rctx(scope).EBV(e)
	}
}

// expr compiles e and wraps native closures with profiler accounting
// under the same kind names the walker uses, so profiles merge across
// backends (satisfying the Compiled column).
func (u *unitCompiler) expr(e ast.Expr) Closure {
	cl, kind := u.compile(e)
	if kind == "" {
		return cl
	}
	return func(c *Ctx) (xdm.Sequence, error) {
		if p := c.R.Profiler; p != nil {
			p.RecordCompiled(kind)
		}
		return cl(c)
	}
}

// atomOne derives the walker's evalAtomizedOne from a compiled
// operand.
func (u *unitCompiler) atomOne(e ast.Expr) itemClosure {
	inner := u.expr(e)
	return func(c *Ctx) (xdm.Item, error) {
		s, err := inner(c)
		if err != nil {
			return nil, err
		}
		return xdm.AtomizeSequence(s).AtMostOne()
	}
}

// compile lowers one node. kind is the profiler label for native
// closures and "" for bridges (the walker records those itself).
func (u *unitCompiler) compile(e ast.Expr) (Closure, string) {
	switch x := e.(type) {
	case ast.StringLit:
		val := xdm.Singleton(xdm.String(x.Val))
		return func(*Ctx) (xdm.Sequence, error) { return val, nil }, "StringLit"
	case ast.IntLit:
		val := xdm.Singleton(xdm.Integer(x.Val))
		return func(*Ctx) (xdm.Sequence, error) { return val, nil }, "IntLit"
	case ast.DoubleLit:
		val := xdm.Singleton(xdm.Double(x.Val))
		return func(*Ctx) (xdm.Sequence, error) { return val, nil }, "DoubleLit"
	case ast.DecimalLit:
		d, err := xdm.DecimalFromString(x.Val)
		if err != nil {
			return func(*Ctx) (xdm.Sequence, error) { return nil, err }, "DecimalLit"
		}
		val := xdm.Singleton(d)
		return func(*Ctx) (xdm.Sequence, error) { return val, nil }, "DecimalLit"
	case ast.VarRef:
		if slot, ok := u.lookup(x.Name); ok {
			return func(c *Ctx) (xdm.Sequence, error) { return c.frame[slot], nil }, "VarRef"
		}
		// Globals and externally bound variables live in the walker
		// environment the unit context carries.
		name := x.Name
		return func(c *Ctx) (xdm.Sequence, error) {
			if v, ok := c.R.Var(name); ok {
				return v, nil
			}
			return nil, fmt.Errorf("xquery: undefined variable $%s", name)
		}, "VarRef"
	case ast.ContextItem:
		return func(c *Ctx) (xdm.Sequence, error) {
			if c.R.Item == nil {
				return nil, fmt.Errorf("xquery: context item is undefined")
			}
			return xdm.Singleton(c.R.Item), nil
		}, "ContextItem"
	case ast.SeqExpr:
		items := make([]Closure, len(x.Items))
		for i, it := range x.Items {
			items[i] = u.expr(it)
		}
		return func(c *Ctx) (xdm.Sequence, error) {
			var out xdm.Sequence
			for _, it := range items {
				s, err := it(c)
				if err != nil {
					return nil, err
				}
				out = append(out, s...)
			}
			return out, nil
		}, "SeqExpr"
	case ast.Ordered:
		inner := u.expr(x.X)
		return func(c *Ctx) (xdm.Sequence, error) { return inner(c) }, "Ordered"
	case ast.Hoisted:
		slot := u.nHoist
		u.nHoist++
		inner := u.expr(x.X)
		return func(c *Ctx) (xdm.Sequence, error) {
			if c.R.SnapshotApply != nil {
				// Sequential mode: updates apply between iterations, so
				// nothing is invariant. Evaluate every time.
				return inner(c)
			}
			cell := &c.hoist[slot]
			if cell.valid {
				return cell.seq, nil
			}
			s, err := inner(c)
			if err != nil {
				return nil, err
			}
			cell.valid, cell.seq = true, s
			return s, nil
		}, "Hoisted"
	case ast.If:
		cond := u.ebv(x.Cond)
		thenC := u.expr(x.Then)
		elseC := u.expr(x.Else)
		return func(c *Ctx) (xdm.Sequence, error) {
			b, err := cond(c)
			if err != nil {
				return nil, err
			}
			if b {
				return thenC(c)
			}
			return elseC(c)
		}, "If"
	case ast.FLWOR:
		return u.flwor(x), "FLWOR"
	case ast.Binary:
		switch x.Op {
		case "and", "or":
			l := u.ebv(x.L)
			r := u.ebv(x.R)
			isOr := x.Op == "or"
			return func(c *Ctx) (xdm.Sequence, error) {
				lb, err := l(c)
				if err != nil {
					return nil, err
				}
				if isOr && lb {
					return xdm.Singleton(xdm.Boolean(true)), nil
				}
				if !isOr && !lb {
					return xdm.Singleton(xdm.Boolean(false)), nil
				}
				rb, err := r(c)
				if err != nil {
					return nil, err
				}
				return xdm.Singleton(xdm.Boolean(rb)), nil
			}, "Binary"
		case "union", "intersect", "except":
			return u.bridge(e), ""
		default: // arithmetic
			l := u.atomOne(x.L)
			r := u.atomOne(x.R)
			op := x.Op
			return func(c *Ctx) (xdm.Sequence, error) {
				lv, err := l(c)
				if err != nil {
					return nil, err
				}
				rv, err := r(c)
				if err != nil {
					return nil, err
				}
				if lv == nil || rv == nil {
					return nil, nil
				}
				res, err := xdm.Arithmetic(op, lv, rv)
				if err != nil {
					return nil, err
				}
				return xdm.Singleton(res), nil
			}, "Binary"
		}
	case ast.Compare:
		return u.comparison(x)
	case ast.Range:
		l := u.atomOne(x.L)
		r := u.atomOne(x.R)
		return func(c *Ctx) (xdm.Sequence, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			li, err := xdm.Cast(lv, xdm.TInteger)
			if err != nil {
				return nil, fmt.Errorf("xquery: range start: %w", err)
			}
			ri, err := xdm.Cast(rv, xdm.TInteger)
			if err != nil {
				return nil, fmt.Errorf("xquery: range end: %w", err)
			}
			lo, hi := int64(li.(xdm.Integer)), int64(ri.(xdm.Integer))
			if lo > hi {
				return nil, nil
			}
			if hi-lo >= 10_000_000 {
				return nil, fmt.Errorf("xquery: range %d to %d is too large", lo, hi)
			}
			out := make(xdm.Sequence, 0, hi-lo+1)
			for v := lo; v <= hi; v++ {
				out = append(out, xdm.Integer(v))
			}
			return out, nil
		}, "Range"
	case ast.FuncCall:
		return u.call(x)
	default:
		// Paths among them: the bridge hands the walker the steps as the
		// planner left them, // merged and predicates classified.
		return u.bridge(e), ""
	}
}

// call compiles a static function call. Four shapes: a compiled user
// function gets a direct closure call with the walker's conversion and
// error contract; an Invoke-only built-in is called natively with
// eagerly compiled arguments — bound now when it is a library function,
// looked up in the running program's registry when it is a host
// function; a streaming-capable built-in bridges so the walker's
// lazy-argument machinery keeps working; and so does a call into an
// imported namespace, which the walker resolves per binding.
func (u *unitCompiler) call(x ast.FuncCall) (Closure, string) {
	f, late := u.mc.resolve(x.Name, len(x.Args))
	name, n := x.Name, len(x.Args)
	if f == nil {
		if late {
			return u.bridge(x), ""
		}
		return func(*Ctx) (xdm.Sequence, error) {
			return nil, fmt.Errorf("%w %s/%d", runtime.ErrUnknownFunction, name, n)
		}, "FuncCall"
	}
	if cu := u.mc.units[f]; cu != nil {
		args := make([]Closure, len(x.Args))
		for i, a := range x.Args {
			args[i] = u.expr(a)
		}
		return func(c *Ctx) (xdm.Sequence, error) {
			if err := c.R.Budget.Step(); err != nil {
				return nil, err
			}
			argv := make([]xdm.Sequence, len(args))
			for i, a := range args {
				v, err := a(c)
				if err != nil {
					return nil, err
				}
				argv[i] = v
			}
			return callUnit(c, cu, argv)
		}, "FuncCall"
	}
	if f.Stream != nil {
		return u.bridge(x), ""
	}
	args := make([]Closure, len(x.Args))
	for i, a := range x.Args {
		args[i] = u.expr(a)
	}
	scope := u.snapshot()
	return func(c *Ctx) (xdm.Sequence, error) {
		if err := c.R.Budget.Step(); err != nil {
			return nil, err
		}
		fn := f
		if late {
			// The engine running this program has a function of this
			// signature (same shape), but its own: a closure over its
			// page, not the compiling engine's.
			if fn = c.R.Prog.Reg.Lookup(name, n); fn == nil {
				return nil, fmt.Errorf("%w %s/%d", runtime.ErrUnknownFunction, name, n)
			}
		}
		argv := make([]xdm.Sequence, len(args))
		for i, a := range args {
			v, err := a(c)
			if err != nil {
				return nil, err
			}
			argv[i] = v
		}
		// Built-ins may read the focus or the environment (fn:position,
		// browser functions), so hand them the fully bound context.
		return fn.Invoke(c.rctx(scope), argv)
	}, "FuncCall"
}

// callUnit invokes a compiled user function: the same preamble,
// conversions and error wrapping as the walker's compiled Invoke, with
// the body running as a closure over a fresh frame.
func callUnit(c *Ctx, cu *unit, argv []xdm.Sequence) (xdm.Sequence, error) {
	calleeR, err := c.R.CalleeContext(cu.name)
	if err != nil {
		return nil, err
	}
	cc := &Ctx{R: calleeR, frame: make([]xdm.Sequence, cu.nSlots), hoist: make([]hoistCell, cu.nHoist)}
	for i, prm := range cu.params {
		v := argv[i]
		if prm.Type != nil {
			cv, err := runtime.ConvertValue(v, *prm.Type)
			if err != nil {
				return nil, fmt.Errorf("xquery: argument $%s of %s: %w", prm.Name.Local, cu.name, err)
			}
			v = cv
		}
		cc.frame[i] = v
	}
	res, err := cu.body(cc)
	if v, ok := calleeR.ExitValue(err); ok {
		res, err = v, nil
	}
	if runtime.IsLoopControl(err) {
		return nil, runtime.LoopControlInFunction(err, cu.name)
	}
	if err != nil {
		return nil, err
	}
	if cu.ret != nil {
		res, err = runtime.ConvertValue(res, *cu.ret)
		if err != nil {
			return nil, fmt.Errorf("xquery: result of %s: %w", cu.name, err)
		}
	}
	return res, nil
}

// comparison compiles value and general comparisons natively; node
// comparisons bridge.
func (u *unitCompiler) comparison(x ast.Compare) (Closure, string) {
	switch x.Kind {
	case ast.ValueComp:
		l := u.atomOne(x.L)
		r := u.atomOne(x.R)
		op := x.Op
		return func(c *Ctx) (xdm.Sequence, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			ok, err := xdm.CompareValues(op, lv, rv)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.Boolean(ok)), nil
		}, "Compare"
	case ast.GeneralComp:
		// Mirror the walker exactly: eager both sides under NoStream
		// (left first); otherwise right eager, left streamed through
		// the walker's iterator so existential short-circuits keep
		// their lazy error visibility.
		lC := u.expr(x.L)
		rC := u.expr(x.R)
		scope := u.snapshot()
		lExpr := x.L
		op := x.Op
		return func(c *Ctx) (xdm.Sequence, error) {
			if c.R.NoStream {
				l, err := lC(c)
				if err != nil {
					return nil, err
				}
				r, err := rC(c)
				if err != nil {
					return nil, err
				}
				ok, err := xdm.GeneralCompare(op, l, r)
				if err != nil {
					return nil, err
				}
				return xdm.Singleton(xdm.Boolean(ok)), nil
			}
			r, err := rC(c)
			if err != nil {
				return nil, err
			}
			ok, err := xdm.GeneralCompareStream(op, c.rctx(scope).EvalIter(lExpr), r)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.Boolean(ok)), nil
		}, "Compare"
	default:
		return u.bridge(x), ""
	}
}

// ebv compiles the effective-boolean-value form of e. Only shapes
// whose walker EBV is equivalent to eager evaluation are computed
// natively; everything else — in particular sequence expressions,
// whose streaming EBV must not force items beyond the second — goes
// through the walker's streaming EBV.
func (u *unitCompiler) ebv(e ast.Expr) ebvClosure {
	switch x := e.(type) {
	case ast.Hoisted:
		slot := u.nHoist
		u.nHoist++
		inner := u.ebv(x.X)
		return func(c *Ctx) (bool, error) {
			if c.R.SnapshotApply != nil {
				return inner(c)
			}
			cell := &c.hoist[slot]
			if cell.valid {
				return cell.b, nil
			}
			b, err := inner(c)
			if err != nil {
				return false, err
			}
			cell.valid, cell.b = true, b
			return b, nil
		}
	case ast.Ordered:
		return u.ebv(x.X)
	case ast.If:
		cond := u.ebv(x.Cond)
		thenB := u.ebv(x.Then)
		elseB := u.ebv(x.Else)
		return func(c *Ctx) (bool, error) {
			b, err := cond(c)
			if err != nil {
				return false, err
			}
			if b {
				return thenB(c)
			}
			return elseB(c)
		}
	case ast.Binary:
		switch x.Op {
		case "and", "or":
			l := u.ebv(x.L)
			r := u.ebv(x.R)
			isOr := x.Op == "or"
			return func(c *Ctx) (bool, error) {
				lb, err := l(c)
				if err != nil {
					return false, err
				}
				if isOr && lb {
					return true, nil
				}
				if !isOr && !lb {
					return false, nil
				}
				return r(c)
			}
		case "union", "intersect", "except":
			return u.bridgeEBV(e)
		default:
			return u.eagerEBV(e)
		}
	case ast.Compare:
		if x.Kind == ast.NodeComp {
			return u.bridgeEBV(e)
		}
		return u.eagerEBV(e)
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit,
		ast.VarRef, ast.ContextItem, ast.FLWOR, ast.Range:
		return u.eagerEBV(e)
	case ast.FuncCall:
		f, late := u.mc.resolve(x.Name, len(x.Args))
		if f == nil && late || f != nil && f.Stream != nil && u.mc.units[f] == nil {
			return u.bridgeEBV(e) // where call bridges
		}
		return u.eagerEBV(e)
	default:
		return u.bridgeEBV(e)
	}
}

// eagerEBV evaluates natively and takes the EBV of the materialized
// sequence — only used for shapes where that matches the walker.
func (u *unitCompiler) eagerEBV(e ast.Expr) ebvClosure {
	inner := u.expr(e)
	return func(c *Ctx) (bool, error) {
		s, err := inner(c)
		if err != nil {
			return false, err
		}
		return xdm.EffectiveBooleanValue(s)
	}
}

// stringish reports whether an atom belongs to the string comparison
// class (untypedAtomic, string, anyURI): within it, both `eq` and `=`
// reduce to codepoint string equality, which is what the hash table
// buckets by. Anything else falls back to predicate evaluation.
func stringish(it xdm.Item) bool {
	switch it.Type() {
	case xdm.TUntypedAtomic, xdm.TString, xdm.TAnyURI:
		return true
	}
	return false
}
