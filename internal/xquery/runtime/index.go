package runtime

import (
	"repro/internal/dom"
	"repro/internal/dom/index"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
)

// This file is the runtime's side of the index/plan split: it turns
// the planner's Step.Access annotations into probes of the
// version-stamped per-document indexes (internal/dom/index and
// internal/fulltext/index). Context.NoIndex turns the probes off, which
// is both the benchmark baseline and the differential-test oracle.
// Document order is not an index's business: every sort goes through
// dom.SortDedup, on the labels package dom keeps (DESIGN.md §5t), with
// indexes on or off.

// PathIndex and ftIndex return the per-document index a probe of the
// tree containing n may read, or nil when the caller should scan: the
// packages' amortised Probe, or — under NoIndexBuild — only an index
// that is already there. (PathIndex is exported for fn:id.)
func (ctx *Context) PathIndex(n *dom.Node) *index.Doc {
	if ctx.NoIndexBuild {
		return index.Fresh(n)
	}
	return index.Probe(n)
}

func (ctx *Context) ftIndex(n *dom.Node) (d *ftindex.Doc, built bool) {
	if ctx.NoIndexBuild {
		return ftindex.Fresh(n), false
	}
	return ftindex.Probe(n)
}

// probeIndex answers an indexed step's candidate list from the
// per-document index: the name-list slice of the focus node's subtree
// for AccessIndexName, the id-pinned elements inside the subtree for
// AccessIndexID. ok is false when the step is unplanned, indexes are
// disabled, index.Probe's amortised-rebuild heuristic declines to
// build, or the index cannot answer (the caller then scans). The
// candidates are in document order — the same set and order the scan's
// walk-plus-node-test would produce for a name probe, and a subset the
// re-applied node test and predicates reduce to the same result for an
// id probe.
func (ctx *Context) probeIndex(n *dom.Node, step *ast.Step) ([]*dom.Node, bool) {
	if ctx.NoIndex || step.Primary != nil || step.Access == ast.AccessScan {
		return nil, false
	}
	orSelf := step.Axis == ast.AxisDescendantOrSelf
	if step.Access == ast.AccessFT {
		return ctx.probeFTIndex(n, step, orSelf)
	}
	idx := ctx.PathIndex(n)
	if idx == nil {
		return nil, false
	}
	var cand []*dom.Node
	var ok bool
	switch step.Access {
	case ast.AccessIndexName:
		space, local, okName := plan.ProbeName(step.Test)
		if !okName {
			return nil, false
		}
		cand, ok = idx.DescendantsByName(n, space, local, orSelf)
	case ast.AccessIndexID:
		id, okID := plan.IDProbeKey(step)
		if !okID {
			return nil, false
		}
		cand, ok = idx.DescendantsByID(n, id, orSelf)
	default:
		return nil, false
	}
	if !ok {
		return nil, false
	}
	if ctx.Profiler != nil {
		ctx.Profiler.recordIndexHits("Path", 1)
	}
	return cand, true
}

// probeFTIndex answers an AccessFT step's candidates from the
// full-text index: the planner guaranteed the first predicate is
// ". ftcontains <literal selection>", so the posting lists bound the
// nodes that can match it — intersected for ftand, unioned for ftor —
// and the evaluator re-applies the node test and every predicate (the
// ftcontains included) to each candidate, exactly as for the other
// probes. ok is false whenever the index cannot answer; the caller
// then scans the axis.
func (ctx *Context) probeFTIndex(n *dom.Node, step *ast.Step, orSelf bool) ([]*dom.Node, bool) {
	if len(step.Preds) == 0 {
		return nil, false
	}
	selAST, okSel := plan.FTProbeSelection(step.Preds[0])
	if !okSel {
		return nil, false
	}
	sel, err := ctx.resolveFTSelection(selAST)
	if err != nil {
		// Literal sources cannot fail to evaluate; treat a failure as
		// "cannot answer" and let the scan surface it.
		return nil, false
	}
	idx, built := ctx.ftIndex(n)
	if built && ctx.Profiler != nil {
		ctx.Profiler.AddFT("builds", 1)
	}
	if idx == nil {
		return nil, false
	}
	cand, okC := idx.Candidates(n, sel, orSelf)
	if !okC {
		return nil, false
	}
	if ctx.Profiler != nil {
		ctx.Profiler.AddFT("probes", 1)
		ctx.Profiler.recordIndexHits("Path", 1)
	}
	return cand, true
}

// SortedNodeSequence puts a node list in document order without
// duplicates — dom.SortDedup, the one document-order sort, which
// reorders nodes in place — and wraps it as a sequence. Path steps, the
// set operators and fn:id go through it.
func SortedNodeSequence(nodes []*dom.Node) xdm.Sequence {
	nodes = dom.SortDedup(nodes)
	out := make(xdm.Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = xdm.NewNode(n)
	}
	return out
}
