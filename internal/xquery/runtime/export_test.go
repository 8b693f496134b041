package runtime

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// EvalPathPerStep evaluates a path one whole step at a time, the
// reference TestPathIterMatchesPerStep holds pathIter to: the first
// step runs against the context's own focus, and every later step sees
// the whole sorted, deduplicated result of the one before it. It shares
// none of the pipeline's stages: each axis is the materialized list
// AxisNodes gives, each predicate runs over the whole list before it,
// and no index is probed.
func (ctx *Context) EvalPathPerStep(p ast.Path) (xdm.Sequence, error) {
	steps := p.Steps
	if p.Absolute {
		n, ok := xdm.IsNode(ctx.Item)
		if !ok {
			return nil, fmt.Errorf("xquery: absolute path requires a node context item")
		}
		return ctx.perStep(xdm.Singleton(xdm.NewNode(n.Root())), steps)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("xquery: empty path")
	}
	first, err := ctx.refStep(&steps[0], ctx.Item, ctx.Pos, ctx.Size)
	if err != nil {
		return nil, err
	}
	res, err := ctx.finishStep(first, len(steps) == 1)
	if err != nil {
		return nil, err
	}
	return ctx.perStep(res, steps[1:])
}

// perStep runs steps over a materialized focus, one step at a time.
func (ctx *Context) perStep(current xdm.Sequence, steps []ast.Step) (xdm.Sequence, error) {
	for si := range steps {
		var results xdm.Sequence
		for i, item := range current {
			r, err := ctx.refStep(&steps[si], item, i+1, len(current))
			if err != nil {
				return nil, err
			}
			results = append(results, r...)
		}
		res, err := ctx.finishStep(results, si == len(steps)-1)
		if err != nil {
			return nil, err
		}
		current = res
	}
	return current, nil
}

// refStep evaluates one step for one focus item: an axis step's
// candidates in axis order, which is proximity order for the reverse
// axes, so predicate positions are simply 1..n.
func (ctx *Context) refStep(step *ast.Step, item xdm.Item, pos, size int) (xdm.Sequence, error) {
	if step.Primary != nil {
		c := ctx.withFocus(item, pos, size)
		res, err := c.Eval(step.Primary)
		if err != nil {
			return nil, err
		}
		return c.refPredicates(res, step.Preds)
	}
	if item == nil {
		return nil, fmt.Errorf("xquery: context item is undefined in a path step")
	}
	n, ok := xdm.IsNode(item)
	if !ok {
		return nil, fmt.Errorf("xquery: axis step applied to an atomic value")
	}
	var cand xdm.Sequence
	for _, c := range AxisNodes(n, step.Axis) {
		if matchNodeTest(c, step.Test, step.Axis) {
			cand = append(cand, xdm.NewNode(c))
		}
	}
	return ctx.refPredicates(cand, step.Preds)
}

// refPredicates filters items through preds, each predicate over the
// whole list the one before it kept.
func (ctx *Context) refPredicates(items xdm.Sequence, preds []ast.Expr) (xdm.Sequence, error) {
	for _, pred := range preds {
		var kept xdm.Sequence
		for i, item := range items {
			res, err := ctx.withFocus(item, i+1, len(items)).Eval(pred)
			if err != nil {
				return nil, err
			}
			keep, err := predicateTruth(res, i+1)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, item)
			}
		}
		items = kept
	}
	return items, nil
}

// AxisNodes returns the nodes on the axis from n in axis order —
// document order for the forward axes, reverse document order for the
// reverse ones — from the axes' definitions, by whole-tree walks and
// pointer comparisons: no labels, no sibling index.
func AxisNodes(n *dom.Node, axis ast.Axis) []*dom.Node {
	var out []*dom.Node
	switch axis {
	case ast.AxisChild:
		return n.Children()
	case ast.AxisAttribute:
		return n.Attrs()
	case ast.AxisSelf:
		return []*dom.Node{n}
	case ast.AxisParent:
		if p := n.Parent(); p != nil {
			out = append(out, p)
		}
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		if axis == ast.AxisAncestorOrSelf {
			out = append(out, n)
		}
		for a := n.Parent(); a != nil; a = a.Parent() {
			out = append(out, a)
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		n.Walk(func(x *dom.Node) bool {
			if x != n || axis == ast.AxisDescendantOrSelf {
				out = append(out, x)
			}
			return true
		})
	case ast.AxisFollowingSibling, ast.AxisPrecedingSibling:
		if p := n.Parent(); p != nil && n.Type != dom.AttributeNode {
			kids := p.Children()
			i := slices.Index(kids, n)
			if axis == ast.AxisFollowingSibling {
				return kids[i+1:]
			}
			out = slices.Clone(kids[:i])
			slices.Reverse(out)
		}
	case ast.AxisFollowing, ast.AxisPreceding:
		// The tree's non-attribute nodes are in document order in a
		// walk from its root, and n stands where it is or, for an
		// attribute, right after its element: a node before that
		// point precedes n unless it is an ancestor, and a node after
		// it follows n unless it is a descendant.
		at := n
		if n.Type == dom.AttributeNode && n.Parent() != nil {
			at = n.Parent()
		}
		after := false
		n.Root().Walk(func(x *dom.Node) bool {
			switch {
			case x == at:
				after = true
			case !after && axis == ast.AxisPreceding && !x.IsAncestorOf(n):
				out = append(out, x)
			case after && axis == ast.AxisFollowing && !n.IsAncestorOf(x):
				out = append(out, x)
			}
			return true
		})
		if axis == ast.AxisPreceding {
			slices.Reverse(out)
		}
	}
	return out
}

// WalkAxis drains the pipeline's cursor of the axis from n.
func WalkAxis(n *dom.Node, axis ast.Axis) []*dom.Node {
	var out []*dom.Node
	var c axisCursor
	c.open(n, axis)
	for x, ok := c.next(); ok; x, ok = c.next() {
		out = append(out, x)
	}
	return out
}

// PooledRecorderHolds takes a recorder from the pool, puts it back and
// returns how many records, strings and placed nodes of an earlier
// construction it still holds anywhere in its scratch.
func PooledRecorderHolds() int {
	r := recorders.Get().(*recorder)
	defer recorders.Put(r)
	held := len(r.placed)
	rec := reflect.ValueOf(&r.Recorder).Elem()
	for _, f := range []string{"recs", "table"} {
		s := rec.FieldByName(f)
		s = s.Slice(0, s.Cap())
		for i := range s.Len() {
			if !s.Index(i).IsZero() {
				held++
			}
		}
	}
	for _, a := range r.attrs[:cap(r.attrs)] {
		if a != (dom.QName{}) {
			held++
		}
	}
	return held
}
