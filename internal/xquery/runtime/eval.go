package runtime

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// Eval evaluates an expression in this context.
func (ctx *Context) Eval(e ast.Expr) (xdm.Sequence, error) {
	if err := ctx.Budget.Step(); err != nil {
		return nil, err
	}
	if ctx.Profiler != nil {
		start := time.Now()
		defer func() { ctx.Profiler.record(exprKind(e), time.Since(start)) }()
	}
	switch x := e.(type) {
	case ast.StringLit:
		return xdm.Singleton(xdm.String(x.Val)), nil
	case ast.IntLit:
		return xdm.Singleton(xdm.Integer(x.Val)), nil
	case ast.DecimalLit:
		d, err := xdm.DecimalFromString(x.Val)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(d), nil
	case ast.DoubleLit:
		return xdm.Singleton(xdm.Double(x.Val)), nil
	case ast.VarRef:
		if b := ctx.env.lookup(x.Name); b != nil {
			return b.Val, nil
		}
		return nil, fmt.Errorf("xquery: undefined variable $%s", x.Name)
	case ast.ContextItem:
		if ctx.Item == nil {
			return nil, fmt.Errorf("xquery: context item is undefined")
		}
		return xdm.Singleton(ctx.Item), nil
	case ast.SeqExpr:
		var out xdm.Sequence
		for _, it := range x.Items {
			s, err := ctx.Eval(it)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case ast.Ordered:
		return ctx.Eval(x.X)
	case ast.Hoisted:
		// Memoised where the FLWOR it belongs to evaluates it (see
		// flworEntry); transparent anywhere else.
		return ctx.Eval(x.X)
	case ast.FuncCall:
		return ctx.evalCall(x)
	case ast.If:
		c, err := ctx.evalEBV(x.Cond)
		if err != nil {
			return nil, err
		}
		if c {
			return ctx.Eval(x.Then)
		}
		return ctx.Eval(x.Else)
	case ast.FLWOR:
		return ctx.evalFLWOR(x)
	case ast.Quantified:
		return ctx.evalQuantified(x)
	case ast.Typeswitch:
		return ctx.evalTypeswitch(x)
	case ast.Binary:
		return ctx.evalBinary(x)
	case ast.Compare:
		return ctx.evalCompare(x)
	case ast.Unary:
		return ctx.evalUnary(x)
	case ast.Range:
		return ctx.evalRange(x)
	case ast.InstanceOf:
		s, err := ctx.Eval(x.X)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(x.Type.Matches(s))), nil
	case ast.TreatAs:
		s, err := ctx.Eval(x.X)
		if err != nil {
			return nil, err
		}
		if !x.Type.Matches(s) {
			return nil, fmt.Errorf("xquery: value does not match type %s in treat as", x.Type)
		}
		return s, nil
	case ast.CastAs:
		return ctx.evalCast(x)
	case ast.Path:
		return ctx.evalPath(x)
	case ast.DirElem:
		n, err := ctx.constructElement(x)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(n)), nil
	case ast.CompConstructor:
		return ctx.evalCompConstructor(x)
	case ast.Insert:
		return ctx.evalInsert(x)
	case ast.Delete:
		return ctx.evalDelete(x)
	case ast.Replace:
		return ctx.evalReplace(x)
	case ast.Rename:
		return ctx.evalRename(x)
	case ast.Transform:
		return ctx.evalTransform(x)
	case ast.Block:
		return ctx.evalBlock(x)
	case ast.BlockDecl:
		// A declaration outside a block body (e.g. a bare statement):
		// bind in place via the block machinery.
		return nil, fmt.Errorf("xquery: variable declaration outside a block")
	case ast.Assign:
		return ctx.evalAssign(x)
	case ast.While:
		return ctx.evalWhile(x)
	case ast.Exit:
		v, err := ctx.Eval(x.With)
		if err != nil {
			return nil, err
		}
		return nil, &exitError{val: v}
	case ast.Break:
		return nil, errBreak
	case ast.Continue:
		return nil, errContinue
	case ast.EventAttach:
		return ctx.evalEventAttach(x)
	case ast.EventDetach:
		return ctx.evalEventDetach(x)
	case ast.EventTrigger:
		return ctx.evalEventTrigger(x)
	case ast.SetStyle:
		return ctx.evalSetStyle(x)
	case ast.GetStyle:
		return ctx.evalGetStyle(x)
	case ast.FTContains:
		return ctx.evalFTContains(x)
	default:
		return nil, fmt.Errorf("xquery: unimplemented expression %T", e)
	}
}

// evalEBV computes the effective boolean value of an expression. The
// streaming form pulls at most two items: `if (//div) then ...` over a
// huge page inspects a single node.
func (ctx *Context) evalEBV(e ast.Expr) (bool, error) {
	if ctx.NoStream {
		s, err := ctx.Eval(e)
		if err != nil {
			return false, err
		}
		return xdm.EffectiveBooleanValue(s)
	}
	return xdm.EffectiveBooleanValueIter(ctx.EvalIter(e))
}

// evalAtomizedOne atomizes the value of e to zero-or-one atomic item.
func (ctx *Context) evalAtomizedOne(e ast.Expr) (xdm.Item, error) {
	s, err := ctx.Eval(e)
	if err != nil {
		return nil, err
	}
	return xdm.AtomizeSequence(s).AtMostOne()
}

// evalString atomizes the value of e to a required string.
func (ctx *Context) evalString(e ast.Expr) (string, error) {
	it, err := ctx.evalAtomizedOne(e)
	if err != nil {
		return "", err
	}
	if it == nil {
		return "", fmt.Errorf("xquery: expected a string, got the empty sequence")
	}
	return it.String(), nil
}

func (ctx *Context) evalCall(x ast.FuncCall) (xdm.Sequence, error) {
	if x.Ship != nil {
		if s, ok, err := ctx.EvalShipped(x.Ship); ok {
			return s, err
		}
	}
	f := ctx.Prog.Reg.Lookup(x.Name, len(x.Args))
	if f == nil {
		return nil, fmt.Errorf("%w %s/%d", ErrUnknownFunction, x.Name, len(x.Args))
	}
	if f.Stream != nil && !ctx.NoStream {
		iters := make([]xdm.Iter, len(x.Args))
		for i, a := range x.Args {
			iters[i] = ctx.EvalIter(a)
		}
		it, err := f.Stream(ctx, iters)
		if err != nil {
			return nil, err
		}
		return xdm.Materialize(it)
	}
	args := make([]xdm.Sequence, len(x.Args))
	for i, a := range x.Args {
		v, err := ctx.Eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return f.Invoke(ctx, args)
}

func (ctx *Context) evalFLWOR(f ast.FLWOR) (xdm.Sequence, error) {
	if f.Ship != nil {
		if s, ok, err := ctx.EvalShipped(f.Ship); ok {
			return s, err
		}
	}
	en := flworEntry{f: f}
	if err := en.clause(ctx, 0); err != nil {
		return nil, err
	}
	if len(f.OrderBy) == 0 {
		return en.out, nil
	}

	// Stable sort on the collected keys. Default empty order: least.
	tuples := en.tuples
	var sortErr error
	sort.SliceStable(tuples, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		for k, spec := range f.OrderBy {
			ka, kb := tuples[a].keys[k], tuples[b].keys[k]
			c, err := compareOrderKeys(ka, kb, spec)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	for _, t := range tuples {
		res, err := t.c.Eval(f.Return)
		if err != nil {
			return nil, err
		}
		en.out = append(en.out, res...)
	}
	return en.out, nil
}

// flworEntry is one evaluation of a FLWOR: the tuples and results so
// far, and what the optimizer's annotations let the entry keep beside
// them — the first-use memo of its hoisted lets and where conjuncts
// (ast.Hoisted) and the hash table of its join (ast.JoinPlan, join.go).
// Both live here, for exactly one entry, because what they hold is
// invariant within an entry and not across entries.
type flworEntry struct {
	f      ast.FLWOR
	memo   []hoistCell
	join   *hashJoin
	out    xdm.Sequence
	tuples []flworTuple // collected for order by
}

type flworTuple struct {
	c    *Context
	keys []xdm.Item // nil marks an empty key
}

// hoistCell memoises one ast.Hoisted: a let value or a conjunct's EBV.
type hoistCell struct {
	done bool
	seq  xdm.Sequence
	ebv  bool
}

func (en *flworEntry) cell(slot int) *hoistCell {
	for len(en.memo) <= slot {
		en.memo = append(en.memo, hoistCell{})
	}
	return &en.memo[slot]
}

// clause binds clause i and everything after it in c, then runs the
// tuple.
func (en *flworEntry) clause(c *Context, i int) error {
	f := &en.f
	if i == len(f.Clauses) {
		return en.tuple(c)
	}
	cl := &f.Clauses[i]
	if !cl.For {
		val, err := en.letValue(c, cl.In)
		if err != nil {
			return err
		}
		if cl.Type != nil {
			if val, err = ConvertValue(val, *cl.Type); err != nil {
				return fmt.Errorf("xquery: let $%s: %w", cl.Var.Local, err)
			}
		}
		return en.clause(c.withBinding(cl.Var, val), i+1)
	}
	if f.Join != nil && f.Join.Clause == i {
		return en.joinClause(c, i)
	}
	// The binding sequence of a for clause streams: the return
	// clause runs as items arrive, so a consumer that stops early
	// (EBV, a positional filter on the FLWOR) stops the walk too.
	// Sequential (scripting) mode keeps the eager snapshot: the
	// body may apply updates between iterations, and the domain
	// must be fixed before the first one.
	var domain xdm.Iter
	if c.SnapshotApply != nil {
		val, err := c.Eval(cl.In)
		if err != nil {
			return err
		}
		domain = xdm.FromSlice(val)
	} else {
		domain = c.EvalIter(cl.In)
	}
	pos := 0
	for {
		item, ok, err := domain.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		pos++
		one := xdm.Singleton(item)
		if cl.Type != nil {
			if one, err = ConvertValue(one, *cl.Type); err != nil {
				return fmt.Errorf("xquery: for $%s: %w", cl.Var.Local, err)
			}
		}
		c2 := c.withBinding(cl.Var, one)
		if !cl.PosVar.IsZero() {
			c2 = c2.withBinding(cl.PosVar, xdm.Singleton(xdm.Integer(pos)))
		}
		if err := en.clause(c2, i+1); err != nil {
			return err
		}
	}
}

// tuple runs one fully bound tuple: where, then order keys or return.
func (en *flworEntry) tuple(c *Context) error {
	f := &en.f
	if f.Where != nil {
		keep, err := en.holds(c, f.Where)
		if err != nil || !keep {
			return err
		}
	}
	if len(f.OrderBy) > 0 {
		t := flworTuple{c: c}
		for _, spec := range f.OrderBy {
			k, err := c.evalAtomizedOne(spec.Key)
			if err != nil {
				return err
			}
			t.keys = append(t.keys, k)
		}
		en.tuples = append(en.tuples, t)
		return nil
	}
	res, err := c.Eval(f.Return)
	if err != nil {
		return err
	}
	en.out = append(en.out, res...)
	return nil
}

// letValue evaluates a let clause's value, a hoisted one at most once
// per entry.
func (en *flworEntry) letValue(c *Context, e ast.Expr) (xdm.Sequence, error) {
	h, hoisted := e.(ast.Hoisted)
	if !hoisted {
		return c.Eval(e)
	}
	m := en.cell(h.Slot)
	if !m.done {
		seq, err := c.Eval(h.X)
		if err != nil {
			return nil, err
		}
		*m = hoistCell{done: true, seq: seq}
	}
	return m.seq, nil
}

// holds computes the EBV of a where clause conjunct by conjunct, left
// to right with `and`'s short circuit, a hoisted conjunct at most once
// per entry — at its first use, so a loop that never gets to it never
// evaluates it.
func (en *flworEntry) holds(c *Context, e ast.Expr) (bool, error) {
	switch x := e.(type) {
	case ast.Binary:
		if x.Op == "and" {
			l, err := en.holds(c, x.L)
			if err != nil || !l {
				return false, err
			}
			return en.holds(c, x.R)
		}
	case ast.Hoisted:
		m := en.cell(x.Slot)
		if !m.done {
			b, err := c.evalEBV(x.X)
			if err != nil {
				return false, err
			}
			*m = hoistCell{done: true, ebv: b}
		}
		return m.ebv, nil
	}
	return c.evalEBV(e)
}

func compareOrderKeys(a, b xdm.Item, spec ast.OrderSpec) (int, error) {
	emptyLeast := true
	if spec.EmptySet {
		emptyLeast = spec.EmptyLeast
	}
	flip := func(c int) int {
		if spec.Descending {
			return -c
		}
		return c
	}
	switch {
	case a == nil && b == nil:
		return 0, nil
	case a == nil:
		if emptyLeast {
			return flip(-1), nil
		}
		return flip(1), nil
	case b == nil:
		if emptyLeast {
			return flip(1), nil
		}
		return flip(-1), nil
	}
	// Untyped order keys compare as strings.
	if a.Type() == xdm.TUntypedAtomic {
		a = xdm.String(a.String())
	}
	if b.Type() == xdm.TUntypedAtomic {
		b = xdm.String(b.String())
	}
	c, err := xdm.CompareForSort(a, b)
	if err != nil {
		return 0, fmt.Errorf("xquery: order by keys are not comparable: %w", err)
	}
	return flip(c), nil
}

// evalQuantified evaluates some/every. Binding sequences stream, so
// `some $d in //div satisfies ...` stops walking the page at the first
// witness (and `every` at the first counterexample).
func (ctx *Context) evalQuantified(q ast.Quantified) (xdm.Sequence, error) {
	var rec func(c *Context, i int) (bool, error)
	rec = func(c *Context, i int) (bool, error) {
		if i == len(q.Vars) {
			return c.evalEBV(q.Satisfies)
		}
		cl := q.Vars[i]
		var domain xdm.Iter
		if c.SnapshotApply != nil {
			val, err := c.Eval(cl.In)
			if err != nil {
				return false, err
			}
			domain = xdm.FromSlice(val)
		} else {
			domain = c.EvalIter(cl.In)
		}
		for {
			item, more, err := domain.Next()
			if err != nil {
				return false, err
			}
			if !more {
				return q.Every, nil
			}
			ok, err := rec(c.withBinding(cl.Var, xdm.Singleton(item)), i+1)
			if err != nil {
				return false, err
			}
			if ok && !q.Every {
				return true, nil
			}
			if !ok && q.Every {
				return false, nil
			}
		}
	}
	ok, err := rec(ctx, 0)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.Boolean(ok)), nil
}

func (ctx *Context) evalTypeswitch(ts ast.Typeswitch) (xdm.Sequence, error) {
	op, err := ctx.Eval(ts.Operand)
	if err != nil {
		return nil, err
	}
	for _, c := range ts.Cases {
		if c.Type.Matches(op) {
			cc := ctx
			if !c.Var.IsZero() {
				cc = ctx.withBinding(c.Var, op)
			}
			return cc.Eval(c.Body)
		}
	}
	cc := ctx
	if !ts.DefaultVar.IsZero() {
		cc = ctx.withBinding(ts.DefaultVar, op)
	}
	return cc.Eval(ts.Default)
}

func (ctx *Context) evalBinary(x ast.Binary) (xdm.Sequence, error) {
	switch x.Op {
	case "or", "and":
		l, err := ctx.evalEBV(x.L)
		if err != nil {
			return nil, err
		}
		if x.Op == "or" && l {
			return xdm.Singleton(xdm.Boolean(true)), nil
		}
		if x.Op == "and" && !l {
			return xdm.Singleton(xdm.Boolean(false)), nil
		}
		r, err := ctx.evalEBV(x.R)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(r)), nil
	case "union", "intersect", "except":
		return ctx.evalNodeSetOp(x)
	default: // arithmetic
		l, err := ctx.evalAtomizedOne(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.evalAtomizedOne(x.R)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil
		}
		res, err := xdm.Arithmetic(x.Op, l, r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(res), nil
	}
}

func (ctx *Context) evalNodeSetOp(x ast.Binary) (xdm.Sequence, error) {
	l, err := ctx.evalNodeSeq(x.L, x.Op)
	if err != nil {
		return nil, err
	}
	r, err := ctx.evalNodeSeq(x.R, x.Op)
	if err != nil {
		return nil, err
	}
	inR := map[*dom.Node]bool{}
	for _, n := range r {
		inR[n] = true
	}
	var nodes []*dom.Node
	switch x.Op {
	case "union":
		nodes = append(nodes, l...)
		nodes = append(nodes, r...)
	case "intersect":
		for _, n := range l {
			if inR[n] {
				nodes = append(nodes, n)
			}
		}
	case "except":
		for _, n := range l {
			if !inR[n] {
				nodes = append(nodes, n)
			}
		}
	}
	return SortedNodeSequence(nodes), nil
}

func (ctx *Context) evalNodeSeq(e ast.Expr, op string) ([]*dom.Node, error) {
	s, err := ctx.Eval(e)
	if err != nil {
		return nil, err
	}
	nodes := make([]*dom.Node, 0, len(s))
	for _, it := range s {
		n, ok := xdm.IsNode(it)
		if !ok {
			return nil, fmt.Errorf("xquery: operand of %q contains a non-node item", op)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func (ctx *Context) evalCompare(x ast.Compare) (xdm.Sequence, error) {
	switch x.Kind {
	case ast.GeneralComp:
		// General comparisons are existential: materialize the right
		// side once, stream the left, and stop at the first pair that
		// compares true.
		if ctx.NoStream {
			l, err := ctx.Eval(x.L)
			if err != nil {
				return nil, err
			}
			r, err := ctx.Eval(x.R)
			if err != nil {
				return nil, err
			}
			ok, err := xdm.GeneralCompare(x.Op, l, r)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.Boolean(ok)), nil
		}
		r, err := ctx.Eval(x.R)
		if err != nil {
			return nil, err
		}
		ok, err := xdm.GeneralCompareStream(x.Op, ctx.EvalIter(x.L), r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(ok)), nil
	case ast.ValueComp:
		l, err := ctx.evalAtomizedOne(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.evalAtomizedOne(x.R)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil
		}
		ok, err := xdm.CompareValues(x.Op, l, r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.Boolean(ok)), nil
	default: // node comparison
		l, err := ctx.evalSingleNodeOrEmpty(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.evalSingleNodeOrEmpty(x.R)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil
		}
		var ok bool
		switch x.Op {
		case "is":
			ok = l == r
		case "<<":
			ok = dom.CompareOrder(l, r) < 0
		case ">>":
			ok = dom.CompareOrder(l, r) > 0
		}
		return xdm.Singleton(xdm.Boolean(ok)), nil
	}
}

func (ctx *Context) evalSingleNodeOrEmpty(e ast.Expr) (*dom.Node, error) {
	s, err := ctx.Eval(e)
	if err != nil {
		return nil, err
	}
	it, err := s.AtMostOne()
	if err != nil || it == nil {
		return nil, err
	}
	n, ok := xdm.IsNode(it)
	if !ok {
		return nil, fmt.Errorf("xquery: node comparison operand is not a node")
	}
	return n, nil
}

func (ctx *Context) evalUnary(x ast.Unary) (xdm.Sequence, error) {
	v, err := ctx.evalAtomizedOne(x.X)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	if x.Neg {
		r, err := xdm.Negate(v)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(r), nil
	}
	// Unary plus still requires a numeric operand.
	if v.Type() == xdm.TUntypedAtomic {
		c, err := xdm.Cast(v, xdm.TDouble)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(c), nil
	}
	if !v.Type().IsNumeric() {
		return nil, fmt.Errorf("xquery: unary + applied to %s", v.Type())
	}
	return xdm.Singleton(v), nil
}

func (ctx *Context) evalRange(x ast.Range) (xdm.Sequence, error) {
	l, err := ctx.evalAtomizedOne(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.evalAtomizedOne(x.R)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return nil, nil
	}
	li, err := xdm.Cast(l, xdm.TInteger)
	if err != nil {
		return nil, fmt.Errorf("xquery: range start: %w", err)
	}
	ri, err := xdm.Cast(r, xdm.TInteger)
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
}

func (ctx *Context) evalCast(x ast.CastAs) (xdm.Sequence, error) {
	v, err := ctx.evalAtomizedOne(x.X)
	if err != nil {
		if x.Castable {
			return xdm.Singleton(xdm.Boolean(false)), nil
		}
		return nil, err
	}
	if v == nil {
		if x.Castable {
			return xdm.Singleton(xdm.Boolean(x.Optional)), nil
		}
		if x.Optional {
			return nil, nil
		}
		return nil, fmt.Errorf("xquery: cannot cast the empty sequence to %s", x.Type)
	}
	if x.Castable {
		return xdm.Singleton(xdm.Boolean(xdm.Castable(v, x.Type))), nil
	}
	c, err := xdm.Cast(v, x.Type)
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(c), nil
}

func (ctx *Context) evalFTContains(x ast.FTContains) (xdm.Sequence, error) {
	s, err := ctx.Eval(x.X)
	if err != nil {
		return nil, err
	}
	// Word sources resolve once, eagerly — before any item is matched
	// and identically on the index and scan paths, so indexed and
	// scan-only runs surface the same errors in the same order.
	sel, err := ctx.resolveFTSelection(x.Sel)
	if err != nil {
		return nil, err
	}
	for _, it := range s {
		if ctx.ftMatchItem(it, sel) {
			return xdm.Singleton(xdm.Boolean(true)), nil
		}
	}
	return xdm.Singleton(xdm.Boolean(false)), nil
}
