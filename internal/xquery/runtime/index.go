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
// version-stamped per-document indexes (internal/dom/index), and uses
// a fresh index's pre numbering for merge-based document-order
// sorting. Context.NoIndex turns all of it off, which is both the
// benchmark baseline and the differential-test oracle.

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

// sortedNodeSequence deduplicates and document-orders a node list.
// When the nodes' tree already carries a fresh index, the sort is
// merge-based over the index's pre numbers: O(k) verification for
// already-ordered input (the common case for step results, which
// arrive ordered per focus node) and an integer sort otherwise —
// never the O(tree) re-stamp of the comparison path. It deliberately
// never builds an index (index.Fresh, not index.For): workloads that
// never probe one — mutation-heavy event dispatch, constructed
// content — keep the cheap stamp-and-sort.
func (ctx *Context) sortedNodeSequence(nodes []*dom.Node) xdm.Sequence {
	if !ctx.NoIndex && len(nodes) > 1 {
		if idx := index.Fresh(nodes[0]); idx != nil {
			if uniq, ok := idx.SortDedup(nodes); ok {
				out := make(xdm.Sequence, len(uniq))
				for i, n := range uniq {
					out[i] = xdm.NewNode(n)
				}
				return out
			}
		}
	}
	return stampSortedNodeSequence(nodes)
}

// SortedNodeSequence exposes the index-aware document-order sort to
// the function library: fn:id collects per-value id lists and merges
// them back to document order through it.
func (ctx *Context) SortedNodeSequence(nodes []*dom.Node) xdm.Sequence {
	return ctx.sortedNodeSequence(nodes)
}
