package runtime

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file holds the per-step half of path evaluation: the barrier
// route of pathIter (iter.go), where a step that cannot stream sees
// its whole materialized focus — unless that focus is one node, from
// which the barrier streams the rest of the path again. Each step maps
// every item of the previous step's result through an axis or filter
// expression; node results are deduplicated and returned in document
// order, atomic results are only allowed from the final step.

// continueSteps runs steps over a materialized focus, one step at a
// time.
func (ctx *Context) continueSteps(current xdm.Sequence, steps []ast.Step) (xdm.Sequence, error) {
	for si := range steps {
		step := &steps[si]
		var results xdm.Sequence
		size := len(current)
		keys := ctx.newStepKeys(step)
		for i, item := range current {
			r, err := ctx.evalStep(step, item, i+1, size, keys)
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

// finishStep enforces the node/atomic mixing rules and orders node
// results.
func (ctx *Context) finishStep(results xdm.Sequence, last bool) (xdm.Sequence, error) {
	nodes := make([]*dom.Node, 0, len(results))
	atomics := 0
	for _, it := range results {
		if n, ok := xdm.IsNode(it); ok {
			nodes = append(nodes, n)
		} else {
			atomics++
		}
	}
	switch {
	case atomics == 0:
		return SortedNodeSequence(nodes), nil
	case len(nodes) > 0:
		return nil, fmt.Errorf("xquery: path step mixes nodes and atomic values")
	case !last:
		return nil, fmt.Errorf("xquery: intermediate path step returned atomic values")
	default:
		return results, nil
	}
}

// evalStep evaluates one step for one focus item. keys are the key
// slots of the step evaluation the item belongs to (newStepKeys).
func (ctx *Context) evalStep(step *ast.Step, item xdm.Item, pos, size int, keys stepKeys) (xdm.Sequence, error) {
	if step.Primary != nil {
		c := ctx.withFocus(item, pos, size)
		res, err := c.Eval(step.Primary)
		if err != nil {
			return nil, err
		}
		return c.applyPredicates(res, step.Preds, false)
	}
	if item == nil {
		return nil, fmt.Errorf("xquery: context item is undefined in a path step")
	}
	n, ok := xdm.IsNode(item)
	if !ok {
		return nil, fmt.Errorf("xquery: axis step applied to an atomic value")
	}
	// stepCandidates walks the axis lazily — in axis order, which is
	// proximity order for reverse axes, so predicate positions are
	// simply 1..n (the XPath "reverse axes count backwards" rule is
	// encoded in the iteration order) and positional predicates stop
	// the walk at their bound; predicates that mention last() are
	// materialized inside their stage. Document order is restored by
	// finishStep.
	return xdm.Materialize(ctx.stepCandidates(n, step, keys))
}

// applyPredicates filters a sequence through predicates.
func (ctx *Context) applyPredicates(items xdm.Sequence, preds []ast.Expr, reverse bool) (xdm.Sequence, error) {
	for _, pred := range preds {
		var kept xdm.Sequence
		size := len(items)
		for i, item := range items {
			pos := i + 1
			if reverse {
				pos = size - i
			}
			c := ctx.withFocus(item, pos, size)
			res, err := c.Eval(pred)
			if err != nil {
				return nil, err
			}
			keep, err := predicateTruth(res, pos)
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

// predicateTruth evaluates a predicate result: a singleton numeric is a
// position test, anything else takes its effective boolean value.
func predicateTruth(res xdm.Sequence, pos int) (bool, error) {
	if len(res) == 1 && res[0].Type().IsNumeric() {
		eq, err := xdm.CompareValues("eq", res[0], xdm.Integer(pos))
		if err != nil {
			return false, err
		}
		return eq, nil
	}
	return xdm.EffectiveBooleanValue(res)
}

// axisNodes returns the nodes on the axis from n, in axis order
// (document order for forward axes, reverse document order for reverse
// axes). The descendant, descendant-or-self and following axes are
// absent: newAxisWalker streams them through treeWalker and
// followingWalker instead of materializing descendant lists (the old
// collectDescendants allocated the full list per call even when the
// node test was about to discard it).
func axisNodes(n *dom.Node, axis ast.Axis) []*dom.Node {
	switch axis {
	case ast.AxisChild:
		return n.Children()
	case ast.AxisAttribute:
		return n.Attrs()
	case ast.AxisSelf:
		return []*dom.Node{n}
	case ast.AxisParent:
		if p := n.Parent(); p != nil {
			return []*dom.Node{p}
		}
		return nil
	case ast.AxisAncestor:
		var out []*dom.Node
		for a := n.Parent(); a != nil; a = a.Parent() {
			out = append(out, a)
		}
		return out
	case ast.AxisAncestorOrSelf:
		out := []*dom.Node{n}
		for a := n.Parent(); a != nil; a = a.Parent() {
			out = append(out, a)
		}
		return out
	case ast.AxisFollowingSibling:
		var out []*dom.Node
		for s := n.NextSibling(); s != nil; s = s.NextSibling() {
			out = append(out, s)
		}
		return out
	case ast.AxisPrecedingSibling:
		var out []*dom.Node
		for s := n.PrevSibling(); s != nil; s = s.PrevSibling() {
			out = append(out, s)
		}
		return out
	case ast.AxisPreceding:
		// Nodes before n excluding ancestors and attributes, in reverse
		// document order: walking the tree in document order, a node
		// before n is an ancestor of n unless its subtree ends before n.
		var fwd []*dom.Node
		pre, _, root := n.Label()
		root.Walk(func(x *dom.Node) bool {
			if x == n {
				return false
			}
			if _, end, _ := x.Label(); end < pre {
				fwd = append(fwd, x)
			}
			return true
		})
		out := make([]*dom.Node, 0, len(fwd))
		for i := len(fwd) - 1; i >= 0; i-- {
			out = append(out, fwd[i])
		}
		return out
	default:
		return nil
	}
}

// matchNodeTest applies a node test. The principal node kind is
// attribute for the attribute axis and element otherwise.
func matchNodeTest(n *dom.Node, t ast.NodeTest, axis ast.Axis) bool {
	if t.AnyNode {
		return true
	}
	if t.IsName {
		principal := dom.ElementNode
		if axis == ast.AxisAttribute {
			principal = dom.AttributeNode
		}
		if n.Type != principal {
			return false
		}
		if !t.AnySpace && n.Name.Space != t.Name.Space {
			return false
		}
		return t.Name.Local == "*" || n.Name.Local == t.Name.Local
	}
	switch t.Kind {
	case xdm.TTextNode:
		return n.Type == dom.TextNode
	case xdm.TCommentNode:
		return n.Type == dom.CommentNode
	case xdm.TDocumentNode:
		return n.Type == dom.DocumentNode
	case xdm.TPINode:
		if n.Type != dom.ProcessingInstructionNode {
			return false
		}
		return t.PITarget == "" || n.Name.Local == t.PITarget
	case xdm.TElementNode, xdm.TAttributeNode:
		want := dom.ElementNode
		if t.Kind == xdm.TAttributeNode {
			want = dom.AttributeNode
		}
		if n.Type != want {
			return false
		}
		if t.HasName && t.KindName.Local != "*" {
			return n.Name.Matches(t.KindName)
		}
		return true
	default:
		return false
	}
}
