package runtime

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/update"
)

// Updating expressions (Update Facility) and sequential statements
// (Scripting Extension), plus the paper's browser grammar extensions.

func (ctx *Context) requirePUL() (*update.PUL, error) {
	if ctx.PUL == nil {
		return nil, fmt.Errorf("xquery: updating expression not allowed in this context")
	}
	return ctx.PUL, nil
}

// evalInsert implements "insert node(s) Source into/before/after Target".
func (ctx *Context) evalInsert(x ast.Insert) (xdm.Sequence, error) {
	pul, err := ctx.requirePUL()
	if err != nil {
		return nil, err
	}
	content, err := ctx.evalContentNodes(x.Source, x.Adopt, "Insert")
	if err != nil {
		return nil, err
	}
	target, err := ctx.evalSingleNode(x.Target, "insert target")
	if err != nil {
		return nil, err
	}
	var kind update.Kind
	switch x.Pos {
	case ast.Into:
		kind = update.InsertInto
	case ast.IntoFirst:
		kind = update.InsertIntoFirst
	case ast.IntoLast:
		kind = update.InsertIntoLast
	case ast.Before:
		kind = update.InsertBefore
	case ast.After:
		kind = update.InsertAfter
	}
	switch x.Pos {
	case ast.Into, ast.IntoFirst, ast.IntoLast:
		if target.Type != dom.ElementNode && target.Type != dom.DocumentNode {
			return nil, fmt.Errorf("xquery: insert into target must be an element or document")
		}
	default:
		if target.Parent() == nil {
			return nil, fmt.Errorf("xquery: insert before/after target has no parent")
		}
		for _, c := range content {
			if c.Type == dom.AttributeNode {
				return nil, fmt.Errorf("xquery: attributes cannot be inserted before/after a node")
			}
		}
	}
	return nil, pul.Add(update.Primitive{Kind: kind, Target: target, Content: content})
}

func (ctx *Context) evalDelete(x ast.Delete) (xdm.Sequence, error) {
	pul, err := ctx.requirePUL()
	if err != nil {
		return nil, err
	}
	s, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	for _, it := range s {
		n, ok := xdm.IsNode(it)
		if !ok {
			return nil, fmt.Errorf("xquery: delete target must be nodes")
		}
		if err := pul.Add(update.Primitive{Kind: update.Delete, Target: n}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (ctx *Context) evalReplace(x ast.Replace) (xdm.Sequence, error) {
	pul, err := ctx.requirePUL()
	if err != nil {
		return nil, err
	}
	target, err := ctx.evalSingleNode(x.Target, "replace target")
	if err != nil {
		return nil, err
	}
	if x.ValueOf {
		with, err := ctx.Eval(x.With)
		if err != nil {
			return nil, err
		}
		return nil, pul.Add(update.Primitive{
			Kind: update.ReplaceValue, Target: target, Value: joinAtomized(with)})
	}
	if target.Parent() == nil {
		return nil, fmt.Errorf("xquery: replace target has no parent")
	}
	content, err := ctx.evalContentNodes(x.With, x.Adopt, "Replace")
	if err != nil {
		return nil, err
	}
	if target.Type == dom.AttributeNode {
		for _, c := range content {
			if c.Type != dom.AttributeNode {
				return nil, fmt.Errorf("xquery: an attribute can only be replaced by attributes")
			}
		}
	} else {
		for _, c := range content {
			if c.Type == dom.AttributeNode {
				return nil, fmt.Errorf("xquery: a %s node cannot be replaced by an attribute", target.Type)
			}
		}
	}
	return nil, pul.Add(update.Primitive{Kind: update.ReplaceNode, Target: target, Content: content})
}

func (ctx *Context) evalRename(x ast.Rename) (xdm.Sequence, error) {
	pul, err := ctx.requirePUL()
	if err != nil {
		return nil, err
	}
	target, err := ctx.evalSingleNode(x.Target, "rename target")
	if err != nil {
		return nil, err
	}
	it, err := ctx.evalAtomizedOne(x.NewName)
	if err != nil {
		return nil, err
	}
	if it == nil {
		return nil, fmt.Errorf("xquery: rename requires a new name")
	}
	name, err := lexicalQName(it)
	if err != nil {
		return nil, err
	}
	return nil, pul.Add(update.Primitive{Kind: update.Rename, Target: target, Name: name})
}

// evalTransform implements copy-modify-return: modifications apply to
// fresh copies only and become visible before the return clause runs.
func (ctx *Context) evalTransform(x ast.Transform) (xdm.Sequence, error) {
	c := ctx
	roots := make([]*dom.Node, 0, len(x.Bindings))
	for _, b := range x.Bindings {
		src, err := c.evalSingleNode(b.In, "copy source")
		if err != nil {
			return nil, err
		}
		cp := src.Clone()
		roots = append(roots, cp)
		c = c.withBinding(b.Var, xdm.Singleton(xdm.NewNode(cp)))
	}
	inner := c.Derive(func(r *Run) { r.PUL, r.apply, r.memo = &update.PUL{}, nil, c.memo })
	if _, err := inner.Eval(x.Modify); err != nil {
		return nil, err
	}
	if err := inner.PUL.TargetsWithin(roots); err != nil {
		return nil, err
	}
	if err := inner.PUL.Apply(nil); err != nil {
		return nil, err
	}
	return c.Eval(x.Return)
}

func (ctx *Context) evalSingleNode(e ast.Expr, what string) (*dom.Node, error) {
	s, err := ctx.Eval(e)
	if err != nil {
		return nil, err
	}
	it, err := s.One()
	if err != nil {
		return nil, fmt.Errorf("xquery: %s: %w", what, err)
	}
	n, ok := xdm.IsNode(it)
	if !ok {
		return nil, fmt.Errorf("xquery: %s must be a node", what)
	}
	return n, nil
}

// --- scripting --------------------------------------------------------------

// evalBlock runs statements sequentially: declarations extend the local
// scope, each statement's pending updates are applied before the next
// statement runs, and the block's value is the value of its last
// statement.
func (ctx *Context) evalBlock(b ast.Block) (xdm.Sequence, error) {
	cur := ctx
	var last xdm.Sequence
	for _, stmt := range b.Stmts {
		if decl, ok := stmt.(ast.BlockDecl); ok {
			var val xdm.Sequence
			if decl.Init != nil {
				var err error
				val, err = cur.Eval(decl.Init)
				if err != nil {
					return nil, err
				}
			}
			if decl.Type != nil {
				cv, err := ConvertValue(val, *decl.Type)
				if err != nil {
					return nil, fmt.Errorf("xquery: variable $%s: %w", decl.Var.Local, err)
				}
				val = cv
			}
			cur = cur.withBinding(decl.Var, val)
			last = nil
		} else {
			res, err := cur.Eval(stmt)
			if err != nil {
				return nil, err
			}
			last = res
		}
		if err := cur.applyPending(); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// applier is the apply state of a run and of the runs derived from it
// (a listener turn counts into its page's): the host's observer and how
// many primitives they have applied. A run applies its list after each
// block statement and while iteration and once at its end (Finish),
// always through applyPending.
type applier struct {
	observe func(update.Primitive)
	applied int
}

// Observe installs f as the observer of every primitive the run applies.
func (ctx *Context) Observe(f func(update.Primitive)) { ctx.apply.observe = f }

// applyPending applies the pending update list through
// update.ApplyPruned. A context without apply state leaves it pending.
// The document memo stays: the list applies to the trees the memo
// holds, so a later fn:doc in the run answers them as the apply left
// them.
func (ctx *Context) applyPending() error {
	a := ctx.apply
	if a == nil || ctx.PUL == nil || ctx.PUL.Empty() {
		return nil
	}
	eliminated, err := ctx.PUL.ApplyPruned(func(pr update.Primitive) {
		a.applied++
		if a.observe != nil {
			a.observe(pr)
		}
	})
	if ctx.Profiler != nil {
		ctx.Profiler.AddUpdates("eliminated", int64(eliminated))
	}
	return err
}

// Finish is the boundary of one evaluation in ctx's run: it calls eval,
// applies what eval left pending, and returns eval's value and the
// primitives applied meanwhile, snapshots included. A panic in either
// recovers into an error matching xqerr.ErrInternal that names where.
// It drops the run's memo at the end, so a host that reuses the context
// resolves afresh in the next evaluation; an evaluation nested in a
// running one (a listener a `trigger event` statement calls) has a run,
// and so a memo, of its own (Derive).
func (ctx *Context) Finish(where string, eval func() (xdm.Sequence, error)) (val xdm.Sequence, applied int, err error) {
	defer xqerr.RecoverInto(&err, where)
	defer ctx.memo.drop()
	start := ctx.apply.applied
	if val, err = eval(); err == nil {
		err = ctx.applyPending()
	}
	if err != nil {
		return nil, 0, err
	}
	return val, ctx.apply.applied - start, nil
}

func (ctx *Context) evalAssign(x ast.Assign) (xdm.Sequence, error) {
	box := ctx.env.lookup(x.Var)
	if box == nil {
		return nil, fmt.Errorf("xquery: assignment to undeclared variable $%s", x.Var)
	}
	val, err := ctx.Eval(x.Val)
	if err != nil {
		return nil, err
	}
	box.Val = val
	return nil, nil
}

func (ctx *Context) evalWhile(x ast.While) (xdm.Sequence, error) {
	const maxIterations = 10_000_000
	for i := 0; ; i++ {
		if i >= maxIterations {
			return nil, fmt.Errorf("xquery: while loop exceeded %d iterations", maxIterations)
		}
		c, err := ctx.evalEBV(x.Cond)
		if err != nil {
			return nil, err
		}
		if !c {
			return nil, nil
		}
		_, err = ctx.Eval(x.Body)
		if snapErr := ctx.applyPending(); snapErr != nil {
			return nil, snapErr
		}
		switch err {
		case nil, errContinue:
			// next iteration
		case errBreak:
			return nil, nil
		default:
			return nil, err
		}
	}
}

// Loop-control sentinels for the scripting break/continue statements
// (§3.3). They unwind through enclosing blocks until a while loop (or a
// function/top-level boundary, where they become real errors).
var (
	errBreak    = fmt.Errorf("xquery: \"break\" outside of a while loop")
	errContinue = fmt.Errorf("xquery: \"continue\" outside of a while loop")
)

// --- browser extensions -------------------------------------------------------

func (ctx *Context) requireHooks(what string) (Hooks, error) {
	if ctx.Hooks == nil {
		return nil, fmt.Errorf("xquery: %s is only available in the browser", what)
	}
	return ctx.Hooks, nil
}

func (ctx *Context) evalEventAttach(x ast.EventAttach) (xdm.Sequence, error) {
	h, err := ctx.requireHooks("event handling")
	if err != nil {
		return nil, err
	}
	event, err := ctx.evalString(x.Event)
	if err != nil {
		return nil, err
	}
	if x.Behind {
		// The "behind" construct binds the listener to the asynchronous
		// evaluation of the target expression (paper §4.4): hand the
		// host a thunk, do not evaluate here. The thunk runs on another
		// goroutine, after this item of a loop and later statements have
		// moved on: it evaluates over the variables as they are now.
		snap := ctx.detach()
		call := func() (xdm.Sequence, error) { return snap.Eval(x.Target) }
		return nil, h.AttachBehind(ctx, event, call, x.Listener)
	}
	targets, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	return nil, h.AttachListener(ctx, event, targets, x.Listener)
}

func (ctx *Context) evalEventDetach(x ast.EventDetach) (xdm.Sequence, error) {
	h, err := ctx.requireHooks("event handling")
	if err != nil {
		return nil, err
	}
	event, err := ctx.evalString(x.Event)
	if err != nil {
		return nil, err
	}
	targets, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	return nil, h.DetachListener(ctx, event, targets, x.Listener)
}

func (ctx *Context) evalEventTrigger(x ast.EventTrigger) (xdm.Sequence, error) {
	h, err := ctx.requireHooks("event handling")
	if err != nil {
		return nil, err
	}
	event, err := ctx.evalString(x.Event)
	if err != nil {
		return nil, err
	}
	targets, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	return nil, h.TriggerEvent(ctx, event, targets)
}

func (ctx *Context) evalSetStyle(x ast.SetStyle) (xdm.Sequence, error) {
	h, err := ctx.requireHooks("style handling")
	if err != nil {
		return nil, err
	}
	prop, err := ctx.evalString(x.Prop)
	if err != nil {
		return nil, err
	}
	targets, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	value, err := ctx.evalString(x.Value)
	if err != nil {
		return nil, err
	}
	return nil, h.SetStyle(ctx, prop, targets, value)
}

func (ctx *Context) evalGetStyle(x ast.GetStyle) (xdm.Sequence, error) {
	h, err := ctx.requireHooks("style handling")
	if err != nil {
		return nil, err
	}
	prop, err := ctx.evalString(x.Prop)
	if err != nil {
		return nil, err
	}
	targets, err := ctx.Eval(x.Target)
	if err != nil {
		return nil, err
	}
	return h.GetStyle(ctx, prop, targets)
}
