package runtime

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file is the lazy entry point of the evaluator: EvalIter produces
// a pull-based xdm.Iter for an expression, so consumers that only need a
// prefix of the result — fn:exists, positional predicates, quantifiers,
// general comparisons — stop pulling as soon as the answer is decided.
// Eval remains the materializing entry point; expressions with no
// streaming benefit fall back to a deferred Eval.

// EvalIter evaluates an expression lazily. Errors are deferred to the
// first Next call, so building an iterator never fails.
func (ctx *Context) EvalIter(e ast.Expr) xdm.Iter {
	it, _ := ctx.evalIter(e)
	return ctx.countItems(e, it)
}

// evalIter is EvalIter without the profiler's count. The second return
// value reports whether the stream is statically known to be
// document-ordered, duplicate-free nodes, which is what lets a path
// stream its next step over a filter primary.
func (ctx *Context) evalIter(e ast.Expr) (xdm.Iter, bool) {
	switch x := e.(type) {
	case ast.StringLit:
		return xdm.SingletonIter(xdm.String(x.Val)), false
	case ast.IntLit:
		return xdm.SingletonIter(xdm.Integer(x.Val)), false
	case ast.DoubleLit:
		return xdm.SingletonIter(xdm.Double(x.Val)), false
	case ast.VarRef:
		if b := ctx.env.lookup(x.Name); b != nil {
			return xdm.FromSlice(b.Val), false
		}
		return xdm.ErrIter(fmt.Errorf("xquery: undefined variable $%s", x.Name)), false
	case ast.ContextItem:
		if ctx.Item == nil {
			return xdm.ErrIter(fmt.Errorf("xquery: context item is undefined")), false
		}
		return xdm.SingletonIter(ctx.Item), false
	case ast.SeqExpr:
		return ctx.seqIter(x), false
	case ast.Ordered:
		return ctx.evalIter(x.X)
	case ast.Hoisted:
		return ctx.evalIter(x.X)
	case ast.If:
		return deferredIter(func() (xdm.Iter, error) {
			c, err := ctx.evalEBV(x.Cond)
			if err != nil {
				return nil, err
			}
			if c {
				return ctx.EvalIter(x.Then), nil
			}
			return ctx.EvalIter(x.Else), nil
		}), false
	case ast.Range:
		return &rangeIter{ctx: ctx, x: x}, false
	case ast.Path:
		return ctx.pathIter(x)
	case ast.FuncCall:
		f := ctx.Prog.Reg.Lookup(x.Name, len(x.Args))
		if f == nil || f.Stream == nil || x.Ship != nil {
			// An annotated call goes where its plan is consulted (evalCall).
			return ctx.lazyEval(e), false
		}
		return deferredIter(func() (xdm.Iter, error) {
			iters := make([]xdm.Iter, len(x.Args))
			for i, a := range x.Args {
				iters[i] = ctx.EvalIter(a)
			}
			return f.Stream(ctx, iters)
		}), false
	default:
		return ctx.lazyEval(e), false
	}
}

// lazyEval defers a materializing Eval to the first pull.
func (ctx *Context) lazyEval(e ast.Expr) xdm.Iter {
	return deferredIter(func() (xdm.Iter, error) {
		s, err := ctx.Eval(e)
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(s), nil
	})
}

// deferredIter opens the underlying iterator on the first pull. An open
// error is sticky: every subsequent pull reports it again.
func deferredIter(open func() (xdm.Iter, error)) xdm.Iter {
	var it xdm.Iter
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if it == nil {
			i, err := open()
			if err != nil {
				it = xdm.ErrIter(err)
				return nil, false, err
			}
			it = i
		}
		return it.Next()
	})
}

// countItems feeds the profiler, when there is one, the items pulled
// from e's iterator, per expression kind, which is how a profile proves
// early exit (items ≪ count × sequence size).
func (ctx *Context) countItems(e ast.Expr, it xdm.Iter) xdm.Iter {
	p := ctx.Profiler
	if p == nil {
		return it
	}
	kind := exprKind(e)
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		item, ok, err := it.Next()
		if ok {
			p.recordItems(kind, 1)
		}
		return item, ok, err
	})
}

func (ctx *Context) seqIter(x ast.SeqExpr) xdm.Iter {
	var cur xdm.Iter
	i := 0
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		for {
			if cur == nil {
				if i >= len(x.Items) {
					return nil, false, nil
				}
				cur = ctx.EvalIter(x.Items[i])
				i++
			}
			item, ok, err := cur.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return item, true, nil
			}
			cur = nil
		}
	})
}

// rangeIter yields a range one integer at a time, one budget step per
// integer: (1 to 1000000)[2] allocates nothing beyond the two pulled
// items. Eval materializes the same iterator, so a range costs the
// same budget on every route.
type rangeIter struct {
	ctx    *Context
	x      ast.Range
	next   int64 // the next integer
	left   int64 // integers still to yield
	opened bool
}

const maxRangePresize = 4096

// open evaluates the bounds.
func (r *rangeIter) open() error {
	r.opened = true
	l, err := r.ctx.evalAtomizedOne(r.x.L)
	if err != nil {
		return err
	}
	h, err := r.ctx.evalAtomizedOne(r.x.R)
	if err != nil || l == nil || h == nil {
		return err
	}
	lc, err := xdm.Cast(l, xdm.TInteger)
	if err != nil {
		return fmt.Errorf("xquery: range start: %w", err)
	}
	hc, err := xdm.Cast(h, xdm.TInteger)
	if err != nil {
		return fmt.Errorf("xquery: range end: %w", err)
	}
	lo, hi := int64(lc.(xdm.Integer)), int64(hc.(xdm.Integer))
	if lo > hi {
		return nil
	}
	if uint64(hi-lo) >= 10_000_000 { // unsigned: the distance overflows int64 from MinInt64 to MaxInt64
		return fmt.Errorf("xquery: range %d to %d is too large", lo, hi)
	}
	r.next, r.left = lo, hi-lo+1
	return nil
}

func (r *rangeIter) Next() (xdm.Item, bool, error) {
	if !r.opened {
		if err := r.open(); err != nil {
			return nil, false, err
		}
	}
	if r.left == 0 {
		return nil, false, nil
	}
	if err := r.ctx.Budget.Step(); err != nil {
		r.left = 0
		return nil, false, err
	}
	item := xdm.Integer(r.next)
	r.next++
	r.left--
	return item, true, nil
}

// materialize drains the range into a slice sized from its bounds, up
// to maxRangePresize: a range the budget stops early allocates little.
func (r *rangeIter) materialize() (xdm.Sequence, error) {
	if err := r.open(); err != nil || r.left == 0 {
		return nil, err
	}
	out := make(xdm.Sequence, 0, min(r.left, maxRangePresize))
	for {
		item, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, item)
	}
}

// --- streaming paths ---------------------------------------------------------

// pathIter evaluates a path lazily, as one pipeline of stages. Steps
// stream as long as two invariants can be maintained without a sort:
// the focus stream is in document order without duplicates
// ("ordered"), and — where the axis needs it — no focus node is an
// ancestor of another ("disjoint"):
//
//   - self and attribute steps preserve order from any ordered input;
//   - child, descendant and descendant-or-self preserve order only from
//     disjoint input (overlapping subtrees would interleave);
//   - child and attribute outputs are disjoint again; descendant
//     outputs are ordered but overlapping;
//   - a focus of at most one node is both, so a path-initial primary
//     whose value is already one node ($doc, $obj) streams into its
//     next step like the context item does.
//
// A step that cannot stream is a sorted stage (sortedStep, path.go):
// it materializes its focus, maps each focus item through the step and
// sorts the result, after which the rest of the path streams again
// wherever the invariants allow. Correctness therefore never depends
// on streamability.
//
// The second return value reports whether the result is statically
// known to be an ordered node stream.
func (ctx *Context) pathIter(p ast.Path) (xdm.Iter, bool) {
	steps := p.Steps
	if p.Absolute {
		n, ok := xdm.IsNode(ctx.Item)
		if !ok {
			return xdm.ErrIter(fmt.Errorf("xquery: absolute path requires a node context item")), false
		}
		return ctx.streamSteps(xdm.SingletonIter(xdm.NewNode(n.Root())), true, true, steps)
	}
	if len(steps) == 0 {
		return xdm.ErrIter(fmt.Errorf("xquery: empty path")), false
	}
	if first := &steps[0]; first.Primary != nil {
		// Filter-step predicates apply in the primary's own order, so
		// they always stream over it: (1, err())[1] and (//div)[1] both
		// pull one item. A primary that is statically an ordered node
		// stream, or whose value is already there and is at most one
		// node, needs no sort; any other has its survivors sorted.
		raw, ord := ctx.evalIter(first.Primary)
		one := atMostOneNode(raw)
		cur := ctx.predStages(ctx.countItems(first.Primary, raw), first, ctx.newStepKeys(first))
		if ord || one {
			return ctx.streamSteps(cur, true, one, steps[1:])
		}
		last := len(steps) == 1
		return ctx.streamSteps(deferredIter(func() (xdm.Iter, error) {
			res, err := xdm.Materialize(cur)
			if err != nil {
				return nil, err
			}
			out, err := ctx.finishStep(res, last)
			if err != nil {
				return nil, err
			}
			return xdm.FromSlice(out), nil
		}), false, false, steps[1:])
	}
	if ctx.Item == nil {
		return xdm.ErrIter(fmt.Errorf("xquery: context item is undefined in a path step")), false
	}
	return ctx.streamSteps(xdm.SingletonIter(ctx.Item), true, true, steps)
}

// streamSteps continues a path over the focus stream cur, whose order
// and disjointness are ord and disjoint, with steps: a stepStream per
// step as long as the step can stream, then a sorted stage for the
// rest.
func (ctx *Context) streamSteps(cur xdm.Iter, ord, disjoint bool, steps []ast.Step) (xdm.Iter, bool) {
	for si := range steps {
		step := &steps[si]
		if !streamable(step, ord, disjoint) {
			return ctx.sortedStep(cur, steps[si:]), steps[len(steps)-1].Primary == nil
		}
		cur = &stepStream{ctx: ctx, step: step, input: cur, keys: ctx.newStepKeys(step)}
		ord, disjoint = true, axisOutDisjoint(step.Axis, disjoint)
	}
	return cur, ord
}

// streamable reports whether step can stream over a focus stream with
// the given order and disjointness: an axis step that preserves
// document order from it.
func streamable(step *ast.Step, ord, disjoint bool) bool {
	if step.Primary != nil || !ord {
		return false
	}
	switch step.Axis {
	case ast.AxisSelf, ast.AxisAttribute:
		return true
	case ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf:
		return disjoint
	default:
		return false
	}
}

// axisOutDisjoint reports whether the output of a streamed axis step is
// disjoint (no node an ancestor of another).
func axisOutDisjoint(a ast.Axis, inDisjoint bool) bool {
	switch a {
	case ast.AxisChild, ast.AxisAttribute:
		return true
	case ast.AxisSelf:
		return inDisjoint
	default: // descendant, descendant-or-self: subtrees overlap
		return false
	}
}

// atMostOneNode reports whether it is a materialized value nobody has
// pulled from that holds no item or one node.
func atMostOneNode(it xdm.Iter) bool {
	s, ok := xdm.Unpulled(it)
	switch {
	case !ok || len(s) > 1:
		return false
	case len(s) == 1:
		_, ok = xdm.IsNode(s[0])
	}
	return ok
}

// stepStream maps an ordered focus stream through one axis step,
// yielding each focus node's candidates lazily.
type stepStream struct {
	ctx   *Context
	step  *ast.Step
	input xdm.Iter
	cur   xdm.Iter
	keys  stepKeys
}

func (s *stepStream) Next() (xdm.Item, bool, error) {
	for {
		if s.cur != nil {
			item, ok, err := s.cur.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return item, true, nil
			}
			s.cur = nil
		}
		focus, ok, err := s.input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		n, isNode := xdm.IsNode(focus)
		if !isNode {
			return nil, false, fmt.Errorf("xquery: axis step applied to an atomic value")
		}
		s.cur = s.ctx.stepCandidates(n, s.step, s.keys)
	}
}

// stepCandidates returns one focus node's lazily filtered candidates:
// axis walk → node test → predicate stages. Every candidate pulled
// consumes one budget step, which is what bounds pure tree walks that
// never re-enter Eval. Every axis step, streamed or in a sorted stage
// (mapStep), comes through here, which makes it the single place the
// planner's annotations are consulted: an indexed step replaces the
// axis walk with the (much smaller) probed candidate list, and the
// node test plus all predicates still re-apply, so a probe can never
// change a result — only skip the nodes a scan would have visited and
// rejected. keys are the key slots of this evaluation of the step
// (newStepKeys), shared by all its focus nodes.
func (ctx *Context) stepCandidates(n *dom.Node, step *ast.Step, keys stepKeys) xdm.Iter {
	var it xdm.Iter
	if cand, ok := ctx.probeIndex(n, step, keys); ok {
		i := 0
		it = xdm.IterFunc(func() (xdm.Item, bool, error) {
			for i < len(cand) {
				c := cand[i]
				i++
				if err := ctx.Budget.Step(); err != nil {
					return nil, false, err
				}
				if matchNodeTest(c, step.Test, step.Axis) {
					return xdm.NewNode(c), true, nil
				}
			}
			return nil, false, nil
		})
	} else {
		walk := newAxisWalker(n, step.Axis)
		it = xdm.IterFunc(func() (xdm.Item, bool, error) {
			for {
				c, ok := walk.next()
				if !ok {
					return nil, false, nil
				}
				if err := ctx.Budget.Step(); err != nil {
					return nil, false, err
				}
				if matchNodeTest(c, step.Test, step.Axis) {
					return xdm.NewNode(c), true, nil
				}
			}
		})
	}
	return ctx.predStages(it, step, keys)
}

// predStages filters a stream through every predicate of step.
func (ctx *Context) predStages(it xdm.Iter, step *ast.Step, keys stepKeys) xdm.Iter {
	for i := range step.Preds {
		it = ctx.predStage(it, step, i, keys)
	}
	return it
}

// predStage filters a stream through predicate i of step, the way the
// planner classified it: a predicate that may call last() needs the
// input size, so its stage materializes its input first; an attribute
// comparison runs natively while keys has a slot for it; everything
// else streams through the generic predIter, and statically bounded
// positional predicates ([1], [position() le 3]) stop pulling input at
// the bound.
func (ctx *Context) predStage(in xdm.Iter, step *ast.Step, i int, keys stepKeys) xdm.Iter {
	pred, pp := step.Preds[i], step.PredPlan(i)
	switch {
	case pp.Kind == ast.PredSized:
		return deferredIter(func() (xdm.Iter, error) {
			items, err := xdm.Materialize(in)
			if err != nil {
				return nil, err
			}
			return &predIter{ctx: ctx, in: xdm.FromSlice(items), pred: pred, size: len(items)}, nil
		})
	case pp.Kind == ast.PredAttrCmp && keys != nil:
		return &attrCmpIter{ctx: ctx, in: in, pred: pred, plan: &step.PredPlans[i], key: &keys[i]}
	}
	return &predIter{ctx: ctx, in: in, pred: pred, bound: pp.Bound, bounded: pp.Kind == ast.PredBounded}
}

// predIter keeps the items of its input for which pred holds, each
// evaluated at its position in the input. size is the input's length
// where the predicate may call last(), 0 where it does not.
type predIter struct {
	ctx     *Context
	in      xdm.Iter
	pred    ast.Expr
	pos     int
	size    int
	bound   int64
	bounded bool
	done    bool
}

func (p *predIter) Next() (xdm.Item, bool, error) {
	if p.done {
		return nil, false, nil
	}
	for {
		if p.bounded && int64(p.pos) >= p.bound {
			p.done = true
			return nil, false, nil
		}
		item, ok, err := p.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			p.done = true
			return nil, false, nil
		}
		p.pos++
		c := p.ctx.withFocus(item, p.pos, p.size)
		res, err := c.Eval(p.pred)
		if err != nil {
			return nil, false, err
		}
		keep, err := predicateTruth(res, p.pos)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return item, true, nil
		}
	}
}

// --- lazy axis walkers -------------------------------------------------------

// An axisWalker yields the nodes of one axis from one node, lazily and
// in axis order: document order for the forward axes, reverse document
// order — proximity order — for the reverse ones.
type axisWalker interface{ next() (*dom.Node, bool) }

func newAxisWalker(n *dom.Node, axis ast.Axis) axisWalker {
	switch axis {
	case ast.AxisChild:
		return &sliceWalker{nodes: n.Children()}
	case ast.AxisAttribute:
		return &sliceWalker{nodes: n.Attrs()}
	case ast.AxisSelf:
		return &upWalker{n: n, one: true}
	case ast.AxisParent:
		return &upWalker{n: n.Parent(), one: true}
	case ast.AxisAncestor:
		return &upWalker{n: n.Parent()}
	case ast.AxisAncestorOrSelf:
		return &upWalker{n: n}
	case ast.AxisFollowingSibling:
		_, after := siblings(n)
		return &sliceWalker{nodes: after}
	case ast.AxisPrecedingSibling:
		before, _ := siblings(n)
		return &sliceWalker{nodes: before, back: true}
	case ast.AxisDescendant:
		w := &treeWalker{}
		w.descend(n)
		return w
	case ast.AxisDescendantOrSelf:
		return &treeWalker{root: n}
	case ast.AxisFollowing:
		return newFollowingWalker(n)
	case ast.AxisPreceding:
		return &precedingWalker{anc: n}
	}
	return &sliceWalker{}
}

// siblings returns the children of n's parent before and after n, from
// the one index package dom finds for n (none for an attribute or a
// detached node), which labels the tree once lookups repeat at one
// version of it.
func siblings(n *dom.Node) (before, after []*dom.Node) {
	i := n.SiblingIndex()
	if i < 0 {
		return nil, nil
	}
	kids := n.Parent().Children()
	return kids[:i], kids[i+1:]
}

// sliceWalker walks a node list front to back, or back to front.
type sliceWalker struct {
	nodes []*dom.Node
	back  bool
}

func (w *sliceWalker) next() (*dom.Node, bool) {
	k := len(w.nodes)
	if k == 0 {
		return nil, false
	}
	if w.back {
		n := w.nodes[k-1]
		w.nodes = w.nodes[:k-1]
		return n, true
	}
	n := w.nodes[0]
	w.nodes = w.nodes[1:]
	return n, true
}

// upWalker walks from n up through its ancestors, n first; one stops it
// after n.
type upWalker struct {
	n   *dom.Node
	one bool
}

func (w *upWalker) next() (*dom.Node, bool) {
	n := w.n
	if n == nil {
		return nil, false
	}
	w.n = n.Parent()
	if w.one {
		w.n = nil
	}
	return n, true
}

// treeWalker streams a subtree in document order, visiting each node
// exactly once without materializing the descendant list. Its stack
// holds one cursor per open ancestor — a child list and a position in
// it — so it is as deep as the tree, not as wide: walking past 2,000
// siblings costs what walking past two does.
type treeWalker struct {
	root  *dom.Node // a subtree root still to visit, before the stack
	stack []walkCursor
}

type walkCursor struct {
	nodes []*dom.Node
	i     int
}

// descend queues n's children to be walked next.
func (w *treeWalker) descend(n *dom.Node) {
	if ch := n.Children(); len(ch) > 0 {
		w.stack = append(w.stack, walkCursor{nodes: ch})
	}
}

func (w *treeWalker) next() (*dom.Node, bool) {
	if n := w.root; n != nil {
		w.root = nil
		w.descend(n)
		return n, true
	}
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.i == len(top.nodes) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		n := top.nodes[top.i]
		top.i++
		w.descend(n)
		return n, true
	}
	return nil, false
}

// followingWalker streams the following axis: for every
// ancestor-or-self of the origin (inner to outer), the subtrees of its
// following siblings, left to right — which is exactly document order
// past the origin's subtree. An attribute's following axis begins with
// its element's children.
type followingWalker struct {
	anc *dom.Node // the ancestor-or-self whose following siblings come next
	tw  treeWalker
}

func newFollowingWalker(n *dom.Node) *followingWalker {
	w := &followingWalker{anc: n}
	if p := n.Parent(); n.Type == dom.AttributeNode && p != nil {
		w.anc = p
		w.tw.descend(p)
	}
	return w
}

func (w *followingWalker) next() (*dom.Node, bool) {
	for {
		if x, ok := w.tw.next(); ok {
			return x, true
		}
		if w.anc == nil {
			return nil, false
		}
		_, after := siblings(w.anc)
		w.anc = w.anc.Parent()
		if len(after) > 0 {
			w.tw.stack = append(w.tw.stack, walkCursor{nodes: after})
		}
	}
}

// precedingWalker streams the preceding axis in reverse document
// order: for every ancestor-or-self of the origin (inner to outer), the
// subtrees of its preceding siblings, right to left, each subtree's
// nodes after its descendants. Ancestors are never on the axis, and an
// attribute's is its element's.
type precedingWalker struct {
	anc   *dom.Node // the ancestor-or-self whose preceding siblings come next
	stack []backCursor
}

// backCursor is a node list still to walk, back to front, and the node
// whose children it is, yielded once the list is done (nil for a list
// of siblings).
type backCursor struct {
	nodes []*dom.Node
	owner *dom.Node
}

func (w *precedingWalker) next() (*dom.Node, bool) {
	for {
		if len(w.stack) == 0 {
			if w.anc == nil {
				return nil, false
			}
			before, _ := siblings(w.anc)
			w.anc = w.anc.Parent()
			if len(before) > 0 {
				w.stack = append(w.stack, backCursor{nodes: before})
			}
			continue
		}
		top := &w.stack[len(w.stack)-1]
		k := len(top.nodes)
		if k == 0 {
			owner := top.owner
			w.stack = w.stack[:len(w.stack)-1]
			if owner != nil {
				return owner, true
			}
			continue
		}
		x := top.nodes[k-1]
		top.nodes = top.nodes[:k-1]
		if kids := x.Children(); len(kids) > 0 {
			w.stack = append(w.stack, backCursor{nodes: kids, owner: x})
			continue
		}
		return x, true
	}
}
