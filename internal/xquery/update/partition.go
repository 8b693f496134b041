// partition.go is the dynamic half of the FLUX-style update-independence
// analysis (Cheney; see PAPERS.md): before a pending update list
// applies, the partitioner proves — with the pre/end document-order
// numbering from internal/dom/index — that sets of primitives touch
// disjoint subtrees, drops primitives whose whole effect lands in a
// subtree a later primitive detaches anyway (dead updates), and applies
// the independent groups concurrently on a bounded worker pool. The
// atomicity contract of Apply is preserved exactly: every group keeps
// its own undo log, and a failure anywhere unwinds all groups in
// reverse group order to the byte-identical pre-apply state.
//
// Independence argument, in brief. Each primitive is assigned a region
// node r: the target itself for the self-contained kinds (insertInto*,
// insertAttributes, replaceValue, rename), the target's parent for the
// kinds that edit a sibling list (insertBefore/After, delete,
// replaceNode). Every write a primitive performs — child-slice edits,
// attribute-list edits, parent-pointer writes — lands on nodes inside
// r's pre-apply subtree span, plus freshly constructed content nodes
// owned by this list. Spans form a laminar family (two subtrees either
// nest or are disjoint), so sorting regions by pre number and merging
// while a region starts inside the running group's span yields maximal
// groups whose spans are pairwise disjoint. An ancestor of one group's
// region can never lie inside another group's region (containment would
// have merged them), so reads up the tree (Root, cycle checks) never
// observe another group's writes. The only cross-group shared word is
// the root's version counter, which is atomic.
package update

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/faultpoint"
)

// Defaults for ParallelConfig.
const (
	// DefaultMaxWorkers bounds the group-apply pool. It is a fixed
	// small constant, not NumCPU: the win parallel apply chases is
	// overlapping per-primitive stalls (listener side effects, host
	// hooks, modelled layout latency), which pays off even on one core.
	DefaultMaxWorkers = 4
	// DefaultMinPrims is the smallest pending list worth an index
	// build: when no fresh document-order index is cached, lists below
	// this size apply serially instead of paying an O(document) walk
	// to prove independence of a handful of primitives.
	DefaultMinPrims = 4
)

// ParallelConfig parameterises ApplyParallel. The zero value is valid:
// defaults fill in, elimination stays off.
type ParallelConfig struct {
	// MaxWorkers bounds the goroutines applying groups concurrently;
	// <= 0 uses DefaultMaxWorkers, 1 forces sequential group apply.
	MaxWorkers int
	// MinPrims is the minimum list size that justifies building a
	// document-order index when none is cached; <= 0 uses
	// DefaultMinPrims.
	MinPrims int
	// Eliminate enables the observability-gated dead-update rules:
	// primitives whose entire effect lands inside a subtree that a
	// surviving delete/replace detaches are dropped before apply. The
	// live documents end up byte-identical either way; what changes is
	// the state of the detached subtrees, so callers must only set
	// this when nothing can observe them (no node items in the result,
	// no node-bearing external variables, no reused context). The
	// unconditional rules — a delete of an already-replaced target, a
	// duplicate delete — are always applied: those primitives were
	// exact no-ops.
	Eliminate bool
	// Stats, when non-nil, receives this call's partition outcome.
	Stats *ApplyStats
}

// ApplyStats reports one ApplyParallel call's partition outcome.
type ApplyStats struct {
	// Groups is how many independent groups the list split into (1
	// when no independence was provable; 0 for an empty list).
	Groups int
	// Eliminated is how many dead primitives were dropped.
	Eliminated int
	// Parallel reports whether groups actually applied concurrently.
	Parallel bool
}

// Process-wide partition counters, surfaced in serve.Metrics.Updates.
var (
	statEliminated      atomic.Int64
	statGroups          atomic.Int64
	statParallelApplies atomic.Int64
)

// Stats is a snapshot of the partitioner's process-wide counters.
type Stats struct {
	// Eliminated counts dead primitives dropped before apply.
	Eliminated int64
	// Groups counts independent groups applied (every ApplyParallel
	// contributes its group count, so Groups/applies is the mean
	// partition width).
	Groups int64
	// ParallelApplies counts ApplyParallel calls that ran at least two
	// groups concurrently.
	ParallelApplies int64
}

// Snapshot returns the current partition counters.
func Snapshot() Stats {
	return Stats{
		Eliminated:      statEliminated.Load(),
		Groups:          statGroups.Load(),
		ParallelApplies: statParallelApplies.Load(),
	}
}

// ApplyParallel performs all pending updates with the same
// all-or-nothing contract as Apply, after running the independence
// analysis: dead primitives are dropped, provably disjoint groups
// apply concurrently (bounded by cfg.MaxWorkers), and a failure in any
// group rolls every group back — reverse group order, each undo log in
// strict reverse — leaving the documents serialisation-identical to
// their pre-apply state with the pending list intact. onChange fires
// once per applied primitive after the whole list has committed, in
// the same order serial Apply reports. RunConfig.SerialUpdates is the
// escape hatch back to Apply, kept as the differential oracle.
func (p *PUL) ApplyParallel(onChange func(Primitive), cfg ParallelConfig) error {
	maxWorkers := cfg.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = DefaultMaxWorkers
	}
	minPrims := cfg.MinPrims
	if minPrims <= 0 {
		minPrims = DefaultMinPrims
	}
	plan := partition(p.prims, cfg.Eliminate, minPrims)
	versions := snapshotVersions(p.prims)

	var logs []*undoLog
	fail := func(err error) error {
		rollbacks.Add(1)
		return rollback(err, logs, versions)
	}

	stats := ApplyStats{Groups: len(plan.groups), Eliminated: plan.eliminated}
	if len(plan.groups) > 1 && maxWorkers > 1 {
		stats.Parallel = true
		logs = make([]*undoLog, len(plan.groups))
		errs := make([]error, len(plan.groups))
		sem := make(chan struct{}, maxWorkers)
		var wg sync.WaitGroup
		for i := range plan.groups {
			logs[i] = &undoLog{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = applyGroup(plan.groups[i], logs[i])
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fail(err)
		}
	} else {
		u := &undoLog{}
		logs = []*undoLog{u}
		for _, g := range plan.groups {
			if err := applyGroup(g, u); err != nil {
				return fail(err)
			}
		}
	}

	statEliminated.Add(int64(plan.eliminated))
	statGroups.Add(int64(len(plan.groups)))
	if stats.Parallel {
		statParallelApplies.Add(1)
	}
	if cfg.Stats != nil {
		*cfg.Stats = stats
	}
	if onChange != nil {
		for _, pr := range orderedPrims(plan.survivors) {
			onChange(pr)
		}
	}
	p.Reset()
	return nil
}

// applyGroup applies one group's primitives in the Update Facility's
// phase order, recording inverses into u. Within a group the relative
// order equals the full serial order, and across disjoint groups the
// operations commute, so any interleaving produces the serial result.
func applyGroup(prims []Primitive, u *undoLog) error {
	for _, pr := range orderedPrims(prims) {
		if err := faultpoint.Hit(faultpoint.PointUpdateApply); err != nil {
			return err
		}
		if err := applyOne(pr, u); err != nil {
			return err
		}
	}
	return nil
}

// primPlan is a partition outcome: the independent groups (each in
// original list order) and the survivors of dead-update elimination.
type primPlan struct {
	groups     [][]Primitive
	survivors  []Primitive
	eliminated int
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
// the serial oracle could observe. Sibling-relative inserts and
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

// partition runs dead-update elimination and independence grouping
// over a pending list. It never errs: when independence cannot be
// proven (no index, unknown nodes, content aliasing) it degrades to a
// single group, which applies exactly like the serial path.
func partition(prims []Primitive, eliminate bool, minPrims int) primPlan {
	drop := make([]bool, len(prims))
	eliminated := 0

	// Unconditionally dead primitives — exact no-ops in the serial
	// order. A delete of a target some replaceNode detaches in phase 3
	// finds it already parentless in phase 4; a second delete of the
	// same target finds it detached by the first.
	replaced := map[*dom.Node]bool{}
	for _, pr := range prims {
		if pr.Kind == ReplaceNode {
			replaced[pr.Target] = true
		}
	}
	deleted := map[*dom.Node]bool{}
	for i, pr := range prims {
		if pr.Kind != Delete {
			continue
		}
		if replaced[pr.Target] || deleted[pr.Target] {
			drop[i] = true
			eliminated++
			continue
		}
		deleted[pr.Target] = true
	}

	// Content aliasing guard: parallel safety assumes every content
	// node is a detached tree nothing else references — a copy, or an
	// adopted fresh construction (the runtime's evalContentNodes hands
	// over nothing else). A hand-built list may attach a tree that other
	// primitives target, or re-insert an attached node; both force the
	// fully serial single group.
	targetRoots := map[*dom.Node]bool{}
	for _, pr := range prims {
		targetRoots[pr.Target.Root()] = true
	}
	for _, pr := range prims {
		for _, c := range pr.Content {
			if c.Parent() != nil || targetRoots[c] {
				return singleGroup(prims, drop, eliminated)
			}
		}
	}

	// Bucket survivors by target tree (first-occurrence order): whole
	// trees are trivially independent of each other.
	var rootOrder []*dom.Node
	buckets := map[*dom.Node][]int{}
	for i, pr := range prims {
		if drop[i] {
			continue
		}
		r := pr.Target.Root()
		if _, ok := buckets[r]; !ok {
			rootOrder = append(rootOrder, r)
		}
		buckets[r] = append(buckets[r], i)
	}

	var groupIdx [][]int
	for _, root := range rootOrder {
		idxs := buckets[root]
		if len(idxs) == 1 {
			groupIdx = append(groupIdx, idxs)
			continue
		}
		d := index.Fresh(root)
		if d == nil && len(idxs) >= minPrims {
			d = index.For(root)
		}
		if d == nil {
			groupIdx = append(groupIdx, idxs)
			continue
		}

		type region struct {
			i        int
			pre, end uint64
		}
		spans := make([]region, 0, len(idxs))
		known := true
		for _, i := range idxs {
			pre, end, ok := d.Span(regionNode(prims[i]))
			if !ok {
				known = false
				break
			}
			spans = append(spans, region{i: i, pre: pre, end: end})
		}
		if !known {
			groupIdx = append(groupIdx, idxs)
			continue
		}

		if eliminate {
			// Observability-gated rule: a primitive whose region lies
			// inside the subtree a surviving delete/replaceNode
			// detaches only ever changes that detached subtree — the
			// live document comes out identical without it. The killer
			// itself survives by construction: its region is the
			// target's parent, strictly above the detached span.
			//
			// A killer span may only eliminate when every primitive
			// regioned inside it is infallible (eliminable). Dropping
			// an infallible primitive from a span that also holds a
			// fallible one could remove the very mutation that made
			// the fallible survivor fail (a replaceValue detaching the
			// reference node of a later replaceNode), turning a failing
			// serial apply into a succeeding parallel one. Such spans
			// are tainted and eliminate nothing.
			type killSpan struct {
				pre, end uint64
				tainted  bool
			}
			var killers []killSpan
			for _, i := range idxs {
				pr := prims[i]
				if (pr.Kind == Delete || pr.Kind == ReplaceNode) && pr.Target.Parent() != nil {
					if pre, end, ok := d.Span(pr.Target); ok {
						killers = append(killers, killSpan{pre: pre, end: end})
					}
				}
			}
			for ki := range killers {
				for _, rs := range spans {
					if killers[ki].pre <= rs.pre && rs.pre <= killers[ki].end && !eliminable(prims[rs.i]) {
						killers[ki].tainted = true
						break
					}
				}
			}
			kept := spans[:0]
			for _, rs := range spans {
				dead := false
				if eliminable(prims[rs.i]) {
					for _, k := range killers {
						if !k.tainted && k.pre <= rs.pre && rs.pre <= k.end {
							dead = true
							break
						}
					}
				}
				if dead {
					drop[rs.i] = true
					eliminated++
					continue
				}
				kept = append(kept, rs)
			}
			spans = kept
		}

		// Laminar merge: sorted by pre number, a region starting
		// inside the running group's span nests there; otherwise it
		// starts a new, provably disjoint group.
		sort.Slice(spans, func(a, b int) bool { return spans[a].pre < spans[b].pre })
		var cur []int
		var curEnd uint64
		flush := func() {
			if len(cur) > 0 {
				sort.Ints(cur)
				groupIdx = append(groupIdx, cur)
			}
		}
		for _, rs := range spans {
			if len(cur) > 0 && rs.pre <= curEnd {
				cur = append(cur, rs.i)
				if rs.end > curEnd {
					curEnd = rs.end
				}
				continue
			}
			flush()
			cur = []int{rs.i}
			curEnd = rs.end
		}
		flush()
	}

	plan := primPlan{eliminated: eliminated}
	for _, idxs := range groupIdx {
		g := make([]Primitive, 0, len(idxs))
		for _, i := range idxs {
			g = append(g, prims[i])
		}
		plan.groups = append(plan.groups, g)
	}
	for i, pr := range prims {
		if !drop[i] {
			plan.survivors = append(plan.survivors, pr)
		}
	}
	return plan
}

// singleGroup is the degraded plan: every surviving primitive in one
// group, applied serially.
func singleGroup(prims []Primitive, drop []bool, eliminated int) primPlan {
	plan := primPlan{eliminated: eliminated}
	for i, pr := range prims {
		if !drop[i] {
			plan.survivors = append(plan.survivors, pr)
		}
	}
	if len(plan.survivors) > 0 {
		plan.groups = [][]Primitive{plan.survivors}
	}
	return plan
}
