// prune.go is the pre-pass in front of Apply: before a pending update
// list applies, the primitives that are exact no-ops in the application
// order are dropped, and what survives goes through the one atomic
// apply. (Dropping primitives whose effect lands only in a subtree the
// list detaches anyway is not done: see DESIGN.md §5i.)
package update

import (
	"sync/atomic"

	"repro/internal/dom"
)

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
// primitives the pre-pass dropped: a delete of a target some
// replaceNode detaches first, a second delete of one target.
func (p *PUL) ApplyPruned(onChange func(Primitive)) (eliminated int, err error) {
	if len(p.prims) == 0 {
		return 0, nil
	}
	survivors := prune(p.prims)
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
func prune(prims []Primitive) []Primitive {
	drop, n := dropNoOps(prims)
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
