package runtime

import (
	"errors"
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
		return xdm.FromSlice(x.Value()), false
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
// A path that starts from one node — the root of an absolute path, the
// context item of a relative one — hands it to its first step's stream
// as that stream's focus (seededSteps), with no iterator around it.
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
		return ctx.seededSteps(n.Root(), steps)
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
		cur := ctx.countItems(first.Primary, raw)
		if preds := ctx.predStages(first, cur); preds != nil {
			cur = preds
		}
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
	n, ok := xdm.IsNode(ctx.Item)
	if !ok {
		return xdm.ErrIter(errAtomicFocus), false
	}
	return ctx.seededSteps(n, steps)
}

// errAtomicFocus is the error of an axis step whose focus holds an
// atomic value.
var errAtomicFocus = errors.New("xquery: axis step applied to an atomic value")

// seededSteps runs steps from the one node n: the first step's stream
// takes n as its focus where the step can stream from one node, and
// the rest continue as streamSteps does.
func (ctx *Context) seededSteps(n *dom.Node, steps []ast.Step) (xdm.Iter, bool) {
	if len(steps) == 0 || !streamable(&steps[0], true, true) {
		return ctx.streamSteps(xdm.SingletonIter(xdm.NewNode(n)), true, true, steps)
	}
	s := ctx.newStepStream(&steps[0], nil)
	s.seed = n
	return ctx.streamSteps(s, true, axisOutDisjoint(steps[0].Axis, true), steps[1:])
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
		cur = ctx.newStepStream(step, cur)
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

// stepStream is one evaluation of an axis step: it maps a focus stream
// through the step, yielding each focus node's candidates lazily — axis
// walk, node test, predicate stages — in the order of the focus. It is
// the evaluation's one object: the cursor over the candidates is a
// value inside it, opened again for each focus node, and the predicate
// stages (one object per predicate, predStages) are built with it and
// restarted for each focus node, so a step costs the same allocations
// over one focus node or a thousand. Every axis step, streamed or in a
// sorted stage (mapStep), is a stepStream, which makes it the single
// place the planner's annotations are consulted: an indexed step
// replaces the axis walk with the (much smaller) probed candidate list,
// and the node test plus all predicates still re-apply, so a probe can
// never change a result — only skip the nodes a scan would have
// visited and rejected.
type stepStream struct {
	candidates
	input xdm.Iter  // the focus stream; nil for a stream seeded with one node
	seed  *dom.Node // the seeded focus node, until it is opened
	preds *predIter // the step's last predicate stage, over candidates; nil without predicates
	open  bool      // the current focus node's candidates are being pulled
}

// newStepStream returns one evaluation of step over the focus stream
// input (nil: the caller seeds it).
func (ctx *Context) newStepStream(step *ast.Step, input xdm.Iter) *stepStream {
	s := &stepStream{candidates: candidates{ctx: ctx, step: step}, input: input}
	s.preds = ctx.predStages(step, &s.candidates)
	return s
}

func (s *stepStream) Next() (xdm.Item, bool, error) {
	for {
		if s.open {
			var item xdm.Item
			var ok bool
			var err error
			if s.preds != nil {
				item, ok, err = s.preds.Next()
			} else {
				item, ok, err = s.candidates.Next()
			}
			if err != nil || ok {
				return item, ok, err
			}
			s.open = false
		}
		n, ok, err := s.nextFocus()
		if err != nil || !ok {
			return nil, false, err
		}
		s.openFocus(n)
	}
}

// nextFocus pulls the next focus node: the seed, or the next item of
// the focus stream, which must be a node.
func (s *stepStream) nextFocus() (*dom.Node, bool, error) {
	if s.input == nil {
		n := s.seed
		s.seed = nil
		return n, n != nil, nil
	}
	focus, ok, err := s.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	n, isNode := xdm.IsNode(focus)
	if !isNode {
		return nil, false, errAtomicFocus
	}
	return n, true, nil
}

// openFocus readies the candidates of focus node n — the probed list
// where the step's index can answer, the axis walk otherwise — and
// restarts the predicate stages over them.
func (s *stepStream) openFocus(n *dom.Node) {
	if cand, ok := s.ctx.probeIndex(n, s.step, s.preds); ok {
		s.cur.list(cand)
	} else {
		s.cur.open(n, s.step.Axis)
	}
	if s.preds != nil {
		s.preds.restart(&s.candidates)
	}
	s.open = true
}

// candidates is the candidate stream of a step's current focus node:
// what its cursor yields that passes the node test. Every candidate
// pulled consumes one budget step, which is what bounds pure tree walks
// that never re-enter Eval.
type candidates struct {
	ctx  *Context
	step *ast.Step
	cur  axisCursor
}

func (c *candidates) Next() (xdm.Item, bool, error) {
	for {
		n, ok := c.cur.next()
		if !ok {
			return nil, false, nil
		}
		if err := c.ctx.Budget.Step(); err != nil {
			return nil, false, err
		}
		if matchNodeTest(n, c.step.Test, c.step.Axis) {
			return xdm.NewNode(n), true, nil
		}
	}
}

// predStages returns the predicate stages of one evaluation of step
// over in, chained in predicate order — the last one, which yields what
// passes them all — or nil when the step has no predicates. The stages
// live as long as the evaluation: restart points them at the next
// focus's input.
func (ctx *Context) predStages(step *ast.Step, in xdm.Iter) *predIter {
	var last *predIter
	for i := range step.Preds {
		p := &predIter{ctx: ctx, in: in, step: step, i: int32(i)}
		if ctx.NoIndex || p.plan().Kind != ast.PredAttrCmp {
			p.key.read = true // no key: the generic test decides
		}
		if last != nil {
			p.in = last
		}
		last = p
	}
	return last
}

// predIter keeps the items of its input for which predicate i of step
// holds, each evaluated at its position in the input, the way the
// planner classified it: a predicate that may call last() needs the
// input size, so its stage materializes its input first; an attribute
// comparison runs natively while its key is strings (attrcmp.go);
// everything else evaluates the predicate, and statically bounded
// positional predicates ([1], [position() le 3]) stop pulling input at
// the bound.
type predIter struct {
	ctx    *Context
	focus  *Context // the frame the predicate is evaluated in; nil until the first
	in     xdm.Iter
	step   *ast.Step
	items  xdm.Sequence // a sized stage's input, materialized at its first pull
	key    attrKey      // an attribute comparison's key, read once per step evaluation
	pos    int          // the position of the last item taken from the input
	i      int32
	filled bool // items holds this focus's input
	done   bool
}

// unplanned is the plan of a predicate the planner has not classified:
// the zero plan, PredSized, which is right for any predicate.
var unplanned ast.PredPlan

// plan returns the planner's classification of the stage's predicate.
func (p *predIter) plan() *ast.PredPlan {
	if int(p.i) < len(p.step.PredPlans) {
		return &p.step.PredPlans[p.i]
	}
	return &unplanned
}

// restart readies the stages for the next focus: every stage counts
// positions from 1 again, and the first reads in. Keys stay read.
func (p *predIter) restart(in xdm.Iter) {
	p.pos, p.items, p.filled, p.done = 0, nil, false, false
	if prev, ok := p.in.(*predIter); ok {
		prev.restart(in)
	} else {
		p.in = in
	}
}

// first returns the stage of the step's first predicate; nil for a
// step without predicates.
func (p *predIter) first() *predIter {
	for p != nil {
		prev, ok := p.in.(*predIter)
		if !ok {
			break
		}
		p = prev
	}
	return p
}

func (p *predIter) Next() (xdm.Item, bool, error) {
	if p.done {
		return nil, false, nil
	}
	pp := p.plan()
	for {
		item, ok, err := p.pull(pp)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			p.done = true
			return nil, false, nil
		}
		p.pos++
		keep, err := p.holds(item, pp)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return item, true, nil
		}
	}
}

// pull takes the stage's next input item: from its materialized input
// for a sized stage, from its input stream otherwise, up to the bound
// of a bounded one.
func (p *predIter) pull(pp *ast.PredPlan) (xdm.Item, bool, error) {
	switch pp.Kind {
	case ast.PredSized:
		if !p.filled {
			items, err := xdm.Materialize(p.in)
			if err != nil {
				return nil, false, err
			}
			p.items, p.filled = items, true
		}
		if p.pos >= len(p.items) {
			return nil, false, nil
		}
		return p.items[p.pos], true, nil
	case ast.PredBounded:
		if int64(p.pos) >= pp.Bound {
			return nil, false, nil
		}
	}
	return p.in.Next()
}

// holds tests the item at position p.pos: natively where the kernel
// can decide, by evaluating the predicate otherwise.
func (p *predIter) holds(item xdm.Item, pp *ast.PredPlan) (bool, error) {
	if !p.key.read {
		p.key.load(p.ctx, pp)
	}
	if n, isNode := xdm.IsNode(item); isNode && p.key.vals != nil {
		if keep, ok := p.key.matches(n, pp); ok {
			return keep, nil
		}
	}
	size := 0
	if pp.Kind == ast.PredSized {
		size = len(p.items)
	}
	// One focus frame per stage, set again for each candidate: the
	// predicate's value is materialized before the next candidate is set,
	// and nothing it evaluates keeps the frame (a loop, a call or a behind
	// call binds in a copy of its own).
	if p.focus == nil {
		p.focus = p.ctx.withFocus(item, p.pos, size)
	} else {
		p.focus.Item, p.focus.Pos, p.focus.Size = item, p.pos, size
	}
	res, err := p.focus.Eval(p.step.Preds[p.i])
	if err != nil {
		return false, err
	}
	return predicateTruth(res, p.pos)
}

// --- axis cursors ------------------------------------------------------------

// axisCursor yields the nodes of one axis from one node, lazily and in
// axis order: document order for the forward axes, reverse document
// order — proximity order — for the reverse ones; or a probed candidate
// list, front to back. It is a value in the step's stream, opened again
// for each focus node, so a tree walk's stack is allocated once per
// step evaluation, not once per focus node.
type axisCursor struct {
	nodes []*dom.Node // walkList, walkListBack: what is left of the list
	// n is walkOne's node and walkUp's next one, walkTree's subtree
	// root still to visit, and the ancestor-or-self whose siblings come
	// next on walkFollowing and walkPreceding.
	n     *dom.Node
	stack []treeLevel // the tree walks' open levels, innermost last
	walk  walkKind
}

// walkKind is how an axisCursor moves.
type walkKind uint8

const (
	walkList      walkKind = iota // nodes, front to back
	walkListBack                  // nodes, back to front
	walkOne                       // n, if any
	walkUp                        // n and its ancestors
	walkTree                      // a subtree in document order
	walkFollowing                 // the following axis
	walkPreceding                 // the preceding axis
)

// treeLevel is one open level of a tree walk: the nodes still to walk
// — front to back, or back to front on the preceding axis — and, on the
// preceding axis, the node whose children they are, yielded once they
// are done (nil for a list of siblings). A stack of levels is as deep
// as the tree, not as wide: walking past 2,000 siblings costs what
// walking past two does.
type treeLevel struct {
	nodes []*dom.Node
	owner *dom.Node
}

// list readies the cursor to walk a candidate list.
func (c *axisCursor) list(nodes []*dom.Node) {
	c.walk, c.nodes, c.n, c.stack = walkList, nodes, nil, c.stack[:0]
}

// open readies the cursor to walk axis from n. An attribute's
// following axis begins with its element's children, and its
// preceding axis is its element's.
func (c *axisCursor) open(n *dom.Node, axis ast.Axis) {
	c.list(nil)
	switch axis {
	case ast.AxisChild:
		c.nodes = n.Children()
	case ast.AxisAttribute:
		c.nodes = n.Attrs()
	case ast.AxisSelf:
		c.walk, c.n = walkOne, n
	case ast.AxisParent:
		c.walk, c.n = walkOne, n.Parent()
	case ast.AxisAncestor:
		c.walk, c.n = walkUp, n.Parent()
	case ast.AxisAncestorOrSelf:
		c.walk, c.n = walkUp, n
	case ast.AxisFollowingSibling:
		_, c.nodes = siblings(n)
	case ast.AxisPrecedingSibling:
		c.walk = walkListBack
		c.nodes, _ = siblings(n)
	case ast.AxisDescendant:
		c.walk = walkTree
		c.descend(n)
	case ast.AxisDescendantOrSelf:
		c.walk, c.n = walkTree, n
	case ast.AxisFollowing:
		c.walk, c.n = walkFollowing, n
		if p := n.Parent(); n.Type == dom.AttributeNode && p != nil {
			c.n = p
			c.descend(p)
		}
	case ast.AxisPreceding:
		c.walk, c.n = walkPreceding, n
	}
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

// push opens a tree level.
func (c *axisCursor) push(nodes []*dom.Node, owner *dom.Node) {
	c.stack = append(c.stack, treeLevel{nodes: nodes, owner: owner})
}

// descend queues n's children to be walked next.
func (c *axisCursor) descend(n *dom.Node) {
	if ch := n.Children(); len(ch) > 0 {
		c.push(ch, nil)
	}
}

func (c *axisCursor) next() (*dom.Node, bool) {
	switch c.walk {
	case walkList:
		if len(c.nodes) == 0 {
			return nil, false
		}
		n := c.nodes[0]
		c.nodes = c.nodes[1:]
		return n, true
	case walkListBack:
		k := len(c.nodes)
		if k == 0 {
			return nil, false
		}
		n := c.nodes[k-1]
		c.nodes = c.nodes[:k-1]
		return n, true
	case walkOne, walkUp:
		n := c.n
		if n == nil {
			return nil, false
		}
		c.n = nil
		if c.walk == walkUp {
			c.n = n.Parent()
		}
		return n, true
	case walkTree:
		if n := c.n; n != nil {
			c.n = nil
			c.descend(n)
			return n, true
		}
		return c.treeNext()
	case walkFollowing:
		// For every ancestor-or-self of the origin, inner to outer, the
		// subtrees of its following siblings, left to right: document
		// order past the origin's subtree.
		for {
			if x, ok := c.treeNext(); ok {
				return x, true
			}
			if c.n == nil {
				return nil, false
			}
			_, after := siblings(c.n)
			c.n = c.n.Parent()
			if len(after) > 0 {
				c.push(after, nil)
			}
		}
	case walkPreceding:
		return c.precedingNext()
	}
	return nil, false
}

// treeNext yields the next node of a forward tree walk, in document
// order, each node once.
func (c *axisCursor) treeNext() (*dom.Node, bool) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if len(top.nodes) == 0 {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		n := top.nodes[0]
		top.nodes = top.nodes[1:]
		c.descend(n)
		return n, true
	}
	return nil, false
}

// precedingNext walks the preceding axis in reverse document order: for
// every ancestor-or-self of the origin, inner to outer, the subtrees of
// its preceding siblings, right to left, each subtree's nodes after its
// descendants. Ancestors are never on the axis.
func (c *axisCursor) precedingNext() (*dom.Node, bool) {
	for {
		if len(c.stack) == 0 {
			if c.n == nil {
				return nil, false
			}
			before, _ := siblings(c.n)
			c.n = c.n.Parent()
			if len(before) > 0 {
				c.push(before, nil)
			}
			continue
		}
		top := &c.stack[len(c.stack)-1]
		k := len(top.nodes)
		if k == 0 {
			owner := top.owner
			c.stack = c.stack[:len(c.stack)-1]
			if owner != nil {
				return owner, true
			}
			continue
		}
		x := top.nodes[k-1]
		top.nodes = top.nodes[:k-1]
		if kids := x.Children(); len(kids) > 0 {
			c.push(kids, x)
			continue
		}
		return x, true
	}
}
