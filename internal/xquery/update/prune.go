// prune.go is the pre-pass in front of Apply: the dynamic half of the
// FLUX-style static effect analysis (Cheney; see PAPERS.md). Before a
// pending update list applies, primitives that cannot change the
// outcome are dropped — exact no-ops always, and, where the caller
// vouches that nothing can observe a detached subtree, primitives whose
// whole effect lands in a subtree a surviving delete or replace
// detaches anyway (dead updates, proven with the pre/end document-order
// numbering from internal/dom/index). What survives goes through the
// one atomic apply.
//
// Region argument, in brief. Each primitive is assigned a region node
// r: the target itself for the self-contained kinds (insertInto*,
// insertAttributes, replaceValue, rename), the target's parent for the
// kinds that edit a sibling list (insertBefore/After, delete,
// replaceNode). Every write a primitive performs — child-slice edits,
// attribute-list edits, parent-pointer writes — lands on nodes inside
// r's pre-apply subtree span, plus the content nodes the list owns
// (Primitive.Content: detached trees nothing else references). So a
// primitive regioned inside the span a delete or replaceNode detaches
// changes only what leaves the document.
package update

import (
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/dom/index"
)

// minPrimsForIndex is the smallest number of primitives on one tree
// worth an index build: with no fresh document-order index cached,
// fewer than this skip the dead-update rule instead of paying an
// O(document) walk to examine a handful of primitives.
const minPrimsForIndex = 4

// Process-wide counters, surfaced in serve.Metrics.Updates.
var (
	statEliminated atomic.Int64
	statApplies    atomic.Int64
)

// Stats is a snapshot of the process-wide apply counters.
type Stats struct {
	// Eliminated counts primitives dropped before apply.
	Eliminated int64
	// Groups counts applied non-empty lists and ParallelApplies stays
	// zero: what is left of the partitioned parallel apply (DESIGN.md
	// §5i, "measured and removed"). Both names survive only because
	// cmd/bench/layers.go reads them and BENCHMARK.json freezes that
	// directory; the ROADMAP benchmark item renames the first and drops
	// the second.
	Groups          int64
	ParallelApplies int64
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{Eliminated: statEliminated.Load(), Groups: statApplies.Load()}
}

// ApplyPruned is Apply behind the pruning pre-pass, with the same
// all-or-nothing contract: a failure rolls the documents back and
// leaves the pending list intact, onChange fires once per surviving
// primitive after the whole list has committed. It returns how many
// primitives the pre-pass dropped.
//
// Exact no-ops — a delete of a target some replaceNode detaches first,
// a second delete of one target — are always dropped. unobserved
// additionally enables the dead-update rule: the live documents end up
// byte-identical either way, what changes is the state of the detached
// subtrees, so callers must only set it when nothing can observe them
// (no node items in the result, no node-bearing external variables, no
// reused context).
func (p *PUL) ApplyPruned(onChange func(Primitive), unobserved bool) (eliminated int, err error) {
	if len(p.prims) == 0 {
		return 0, nil
	}
	survivors := prune(p.prims, unobserved)
	if err := applyAtomic(survivors, onChange); err != nil {
		return 0, err
	}
	eliminated = len(p.prims) - len(survivors)
	statApplies.Add(1)
	statEliminated.Add(int64(eliminated))
	p.Reset()
	return eliminated, nil
}

// prune returns the primitives that survive the pre-pass, in list
// order: prims itself when nothing is dropped.
func prune(prims []Primitive, unobserved bool) []Primitive {
	drop, n := dropNoOps(prims)
	if unobserved && len(prims)-n >= 2 {
		if drop == nil {
			drop = make([]bool, len(prims))
		}
		n += dropDead(prims, drop)
	}
	if n == 0 {
		return prims
	}
	out := make([]Primitive, 0, len(prims)-n)
	for i, pr := range prims {
		if !drop[i] {
			out = append(out, pr)
		}
	}
	return out
}

// dropNoOps marks the primitives that are exact no-ops in the
// application order: a delete of a target some replaceNode detaches in
// phase 3 finds it already parentless in phase 4; a second delete of
// the same target finds it detached by the first. drop stays nil when
// the list holds no such pair.
func dropNoOps(prims []Primitive) (drop []bool, n int) {
	deletes, replaces := 0, 0
	for i := range prims {
		switch prims[i].Kind {
		case Delete:
			deletes++
		case ReplaceNode:
			replaces++
		}
	}
	if deletes == 0 || deletes+replaces < 2 {
		return nil, 0
	}
	gone := make(map[*dom.Node]bool, deletes+replaces)
	for i := range prims {
		if prims[i].Kind == ReplaceNode {
			gone[prims[i].Target] = true
		}
	}
	for i := range prims {
		if prims[i].Kind != Delete {
			continue
		}
		if gone[prims[i].Target] {
			if drop == nil {
				drop = make([]bool, len(prims))
			}
			drop[i] = true
			n++
			continue
		}
		gone[prims[i].Target] = true
	}
	return drop, n
}

// regionNode maps a primitive to the node whose pre-apply subtree
// bounds all of its writes: the target for self-contained kinds, the
// target's parent for sibling-list edits. A parentless target of a
// sibling-list kind (which applies as an error or a no-op) conservatively
// regions at the target itself.
func regionNode(pr Primitive) *dom.Node {
	switch pr.Kind {
	case InsertBefore, InsertAfter, Delete, ReplaceNode:
		if p := pr.Target.Parent(); p != nil {
			return p
		}
	}
	return pr.Target
}

// eliminable reports whether pr provably cannot fail at apply time,
// whatever else the list does — the precondition for dropping it.
// Eliminating a primitive that would have failed would convert a
// failing (and fully rolled back) apply into a succeeding one, which
// the reference Apply could observe. Sibling-relative inserts and
// element replaceNode stay ineligible: an earlier-phase primitive in
// the same subtree can detach their reference node and fail them.
func eliminable(pr Primitive) bool {
	switch pr.Kind {
	case Delete:
		return true
	case ReplaceValue:
		return pr.Target.Type != dom.DocumentNode
	case Rename:
		// Attribute renames stay ineligible even though they cannot
		// fail: setAttr resolves attributes by name on the owner
		// element, so renaming a doomed attribute is observable to a
		// surviving insertAttributes on its (live) owner. Element and
		// PI names feed no lookup in applyOne.
		t := pr.Target.Type
		return t == dom.ElementNode || t == dom.ProcessingInstructionNode
	case InsertInto, InsertIntoFirst, InsertIntoLast:
		if pr.Target.Type != dom.ElementNode {
			return false
		}
		for _, c := range pr.Content {
			if c == nil || c.Type == dom.DocumentNode {
				return false
			}
		}
		return true
	case InsertAttributes:
		if pr.Target.Type != dom.ElementNode {
			return false
		}
		for _, c := range pr.Content {
			if c == nil || c.Type != dom.AttributeNode {
				return false
			}
		}
		return true
	}
	return false
}

// dropDead is the observability-gated rule, tree by tree: a primitive
// whose region lies inside the subtree a surviving delete/replaceNode
// detaches only ever changes that detached subtree — the live document
// comes out identical without it. The killer itself survives by
// construction: its region is the target's parent, strictly above the
// detached span. It never errs: a tree without a document-order index
// (and too few primitives to justify building one), or a region the
// index does not know, keeps all its primitives.
func dropDead(prims []Primitive, drop []bool) (n int) {
	var roots []*dom.Node
	byRoot := map[*dom.Node][]int{}
	for i := range prims {
		if drop[i] {
			continue
		}
		r := prims[i].Target.Root()
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	for _, root := range roots {
		idxs := byRoot[root]
		if len(idxs) < 2 {
			continue
		}
		d := index.Fresh(root)
		if d == nil && len(idxs) >= minPrimsForIndex {
			d = index.For(root)
		}
		if d == nil {
			continue
		}
		n += dropDeadIn(d, prims, idxs, drop)
	}
	return n
}

// dropDeadIn applies the rule to the primitives idxs of one indexed
// tree.
//
// A killer span may only eliminate when every primitive regioned inside
// it is infallible (eliminable). Dropping an infallible primitive from
// a span that also holds a fallible one could remove the very mutation
// that made the fallible survivor fail (a replaceValue detaching the
// reference node of a later replaceNode), turning a failing apply into
// a succeeding one. Such spans are tainted and eliminate nothing.
func dropDeadIn(d *index.Doc, prims []Primitive, idxs []int, drop []bool) (n int) {
	type span struct{ pre, end uint64 }
	inside := func(k, r span) bool { return k.pre <= r.pre && r.pre <= k.end }

	regions := make([]span, len(idxs))
	var killers []span
	for j, i := range idxs {
		pre, end, ok := d.Span(regionNode(prims[i]))
		if !ok {
			return 0
		}
		regions[j] = span{pre, end}
		pr := prims[i]
		if (pr.Kind == Delete || pr.Kind == ReplaceNode) && pr.Target.Parent() != nil {
			if pre, end, ok := d.Span(pr.Target); ok {
				killers = append(killers, span{pre, end})
			}
		}
	}
	sound := killers[:0]
	for _, k := range killers {
		tainted := false
		for j, i := range idxs {
			if inside(k, regions[j]) && !eliminable(prims[i]) {
				tainted = true
				break
			}
		}
		if !tainted {
			sound = append(sound, k)
		}
	}
	for j, i := range idxs {
		for _, k := range sound {
			if inside(k, regions[j]) {
				drop[i] = true
				n++
				break
			}
		}
	}
	return n
}
