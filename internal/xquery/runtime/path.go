package runtime

import (
	"fmt"
	"slices"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file holds the sorted stage of the path pipeline (iter.go):
// where a step cannot stream, the stage materializes the step's focus,
// maps every focus item through the step — an axis step's candidates
// or a filter step's primary, then the predicate stages a streamed
// step uses — and sorts what they yield.
// Node results are deduplicated and returned in document order, atomic
// results are only allowed from the final step. The stage's result
// feeds the rest of the path, which streams again where it can.

// sortedStep runs steps[0] as a sorted stage over the focus stream
// prev, on the first pull, and the rest of steps over its result. A
// materialized sequence of at most one node is ordered and disjoint:
// such a focus streams steps[0] itself when its axis allows —
// (//a)[1]/b, //x[@id = "k"]/y, doc(u)/a — and such a result streams
// the steps after it. The guard on the focus is what makes the stage
// progress: a step that cannot stream even from one node would come
// straight back here.
func (ctx *Context) sortedStep(prev xdm.Iter, steps []ast.Step) xdm.Iter {
	return deferredIter(func() (xdm.Iter, error) {
		focus, err := xdm.Materialize(prev)
		if err != nil {
			return nil, err
		}
		if len(focus) <= 1 && streamable(&steps[0], true, true) {
			if n, ok := oneNode(focus); ok {
				it, _ := ctx.seededSteps(n, steps)
				return it, nil
			}
			it, _ := ctx.streamSteps(xdm.FromSlice(focus), true, true, steps)
			return it, nil
		}
		out, err := ctx.mapStep(focus, &steps[0], len(steps) == 1)
		if err != nil {
			return nil, err
		}
		it, _ := ctx.streamSteps(xdm.FromSlice(out), true, len(out) <= 1, steps[1:])
		return it, nil
	})
}

// oneNode returns the node of a one-node sequence.
func oneNode(s xdm.Sequence) (*dom.Node, bool) {
	if len(s) != 1 {
		return nil, false
	}
	return xdm.IsNode(s[0])
}

// mapStep evaluates step for every item of a materialized focus and
// orders the results with finishStep. last reports whether the step
// ends the path. An axis step is one stepStream over the focus. An
// axis step from one focus node needs no sort: its walk yields each
// node once, in document order on a forward axis and in reverse on a
// reverse one, so the output is reversed or passed on as it is, and the
// tree is never labeled for it. A filter step evaluates its primary at
// each item's position in the focus — which gives position() and
// last() their values — and restarts its predicate stages over each
// result.
func (ctx *Context) mapStep(focus xdm.Sequence, step *ast.Step, last bool) (xdm.Sequence, error) {
	var results xdm.Sequence
	if step.Primary == nil {
		s := ctx.newStepStream(step, nil)
		if n, ok := oneNode(focus); ok {
			s.seed = n
		} else {
			s.input = xdm.FromSlice(focus)
		}
		for {
			r, ok, err := s.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			results = append(results, r)
		}
		if len(focus) == 1 {
			if step.Axis.Reverse() {
				slices.Reverse(results)
			}
			return results, nil
		}
		return ctx.finishStep(results, last)
	}
	preds := ctx.predStages(step, nil)
	// One focus frame, set again for each item as a predicate stage sets
	// its own: the primary's value is materialized before the next item
	// is set, and nothing it evaluates keeps the frame.
	var fc *Context
	for i, item := range focus {
		if fc == nil {
			fc = ctx.withFocus(item, i+1, len(focus))
		} else {
			fc.Item, fc.Pos = item, i+1
		}
		res, err := fc.Eval(step.Primary)
		if err != nil {
			return nil, err
		}
		if preds == nil {
			results = append(results, res...)
			continue
		}
		preds.restart(xdm.FromSlice(res))
		for {
			r, ok, err := preds.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			results = append(results, r)
		}
	}
	return ctx.finishStep(results, last)
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

// matchNodeTest applies a node test. The principal node kind is
// attribute for the attribute axis and element otherwise. The
// attribute axis holds no namespace declarations: the parser keeps
// xmlns and xmlns:p as attributes in markup.XMLNSNamespace only so
// that they are written again, and no test of the axis matches them.
func matchNodeTest(n *dom.Node, t ast.NodeTest, axis ast.Axis) bool {
	if axis == ast.AxisAttribute && n.Name.Space == markup.XMLNSNamespace {
		return false
	}
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
