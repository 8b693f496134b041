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
// internal/fulltext/index) and of the id map package dom keeps current
// on every tree (dom.Node.AppendByID). Context.NoIndex turns the probes
// off, which is both the benchmark baseline and the differential-test
// oracle. Document order is not an index's business: every sort goes
// through dom.SortDedup, on the labels package dom keeps (DESIGN.md
// §5t), with indexes on or off.

// UsesIDMap reports whether an id lookup in the tree containing n may
// read the tree's id map (a planned [@id = K] step, fn:id): not under
// NoIndex, and under NoIndexBuild only a map that is already built —
// building one would make the tree's memory grow.
func (ctx *Context) UsesIDMap(n *dom.Node) bool {
	return !ctx.NoIndex && (!ctx.NoIndexBuild || n.HasIDMap())
}

// readIndex is how the runtime reads either per-document index: the
// package's Probe, or — under NoIndexBuild — only an index that is
// already there. built reports whether the call built one.
func readIndex[D any](ctx *Context, n *dom.Node,
	probe func(*dom.Node) (*D, bool), fresh func(*dom.Node) *D) (d *D, built bool) {
	if ctx.NoIndexBuild {
		return fresh(n), false
	}
	return probe(n)
}

// probeIndex answers an indexed step's candidate list: for
// AccessIndexName the name-list slice of the focus node's subtree from
// the path index, for AccessIndexID the holders of the id inside the
// subtree from the tree's id map. ok is false when the step is
// unplanned, indexes are disabled, the lifecycle's amortised-rebuild
// heuristic declines to build a path index, or the index cannot answer
// (the caller then scans). The candidates are in document order — the
// same set and order the scan's walk-plus-node-test would produce for a
// name probe, and a subset the re-applied node test and predicates
// reduce to the same result for an id probe. preds are the step
// evaluation's predicate stages (predStages): an id key is read once,
// through the first one.
func (ctx *Context) probeIndex(n *dom.Node, step *ast.Step, preds *predIter) ([]*dom.Node, bool) {
	if ctx.NoIndex || step.Primary != nil || step.Access == ast.AccessScan {
		return nil, false
	}
	orSelf := step.Axis == ast.AxisDescendantOrSelf
	switch step.Access {
	case ast.AccessFT:
		return ctx.probeFTIndex(n, step, orSelf)
	case ast.AccessIndexID:
		if !hasCandidate(n, step, orSelf) {
			return ctx.indexHit(nil) // no candidate: the scan never reads the key, nor does the probe
		}
		id, ok := preds.first().id()
		switch {
		case !ok: // not one non-empty string: the scan's candidates keep its errors and matches
			return ctx.probeNames(n, step, orSelf)
		case !ctx.UsesIDMap(n):
			return nil, false
		}
		return ctx.indexHit(n.AppendByID(nil, id, orSelf))
	case ast.AccessIndexName:
		return ctx.probeNames(n, step, orSelf)
	}
	return nil, false
}

// hasCandidate reports whether an AccessIndexID step has a node in n's
// subtree that passes its node test — the node at which a scan first
// reads the key — from a current path index, which it never builds, or
// by a walk to the first such node.
func hasCandidate(n *dom.Node, step *ast.Step, orSelf bool) bool {
	space, local, named := plan.ProbeName(step.Test)
	if idx := index.Fresh(n); named && idx != nil {
		if cand, ok := idx.DescendantsByName(n, space, local, orSelf); ok {
			return len(cand) > 0
		}
	}
	return !n.Walk(func(c *dom.Node) bool {
		return c == n && !orSelf || !matchNodeTest(c, step.Test, step.Axis)
	})
}

// probeNames answers a step's candidates from the path index: the
// elements of the step's name in n's subtree.
func (ctx *Context) probeNames(n *dom.Node, step *ast.Step, orSelf bool) ([]*dom.Node, bool) {
	space, local, ok := plan.ProbeName(step.Test)
	if !ok {
		return nil, false
	}
	idx, _ := readIndex(ctx, n, index.Probe, index.Fresh)
	if idx == nil {
		return nil, false
	}
	cand, ok := idx.DescendantsByName(n, space, local, orSelf)
	if !ok {
		return nil, false
	}
	return ctx.indexHit(cand)
}

// indexHit counts an answered probe for the profiler.
func (ctx *Context) indexHit(cand []*dom.Node) ([]*dom.Node, bool) {
	if ctx.Profiler != nil {
		ctx.Profiler.recordIndexHits("Path", 1)
	}
	return cand, true
}

// probeFTIndex answers an AccessFT step's candidates from the
// full-text index: the planner guaranteed the first predicate is
// ". ftcontains <literal selection>", which it resolved (LitSel), so
// the posting lists bound the nodes that can match it — intersected
// for ftand, unioned for ftor —
// and the evaluator re-applies the node test and every predicate (the
// ftcontains included) to each candidate, exactly as for the other
// probes. ok is false whenever the index cannot answer; the caller
// then scans the axis.
func (ctx *Context) probeFTIndex(n *dom.Node, step *ast.Step, orSelf bool) ([]*dom.Node, bool) {
	if len(step.Preds) == 0 {
		return nil, false
	}
	ftc, ok := plan.FTProbe(step.Preds[0])
	if !ok {
		return nil, false
	}
	sel := ftc.LitSel
	idx, built := readIndex(ctx, n, ftindex.Probe, ftindex.Fresh)
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
