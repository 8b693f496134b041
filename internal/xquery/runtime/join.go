package runtime

import (
	"sort"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// The hash join behind ast.JoinPlan. The optimizer annotates a FLWOR
// whose last for clause ranges over a pure domain independent of the
// earlier clauses and whose leading where conjunct equates a key over
// that clause's variable with a key over the earlier ones; the nested
// loop would evaluate the predicate for every pair. The join evaluates
// the domain and its keys once per FLWOR entry, buckets the domain by
// key, and probes with each outer tuple's key: O(n+m) for O(n·m).
//
// The table buckets by string value, which is what both `eq` and `=`
// compare within the string class (untypedAtomic, string, anyURI). A
// key outside it compares by value rules the table cannot answer, so
// such a tuple — or, when it is a build key, every tuple — walks the
// predicate over the materialized domain instead: the nested loop, with
// the same answer. So does every tuple when a build key raises: the
// nested loop may meet another error first. Matches come out in domain order, as the nested loop
// would produce them.

// hashJoin is the build side of one FLWOR entry's join.
type hashJoin struct {
	domain   xdm.Sequence
	table    map[string][]int // key atom's string value → domain indexes, ascending
	fallback bool             // a build key left the string class or raised
}

// stringish reports whether an atom belongs to the string comparison
// class: within it `eq` and `=` are codepoint string equality.
func stringish(it xdm.Item) bool {
	switch it.Type() {
	case xdm.TUntypedAtomic, xdm.TString, xdm.TAnyURI:
		return true
	}
	return false
}

// joinKey evaluates one side of the join predicate to its atoms, with
// the comparison's own error for an `eq` operand of several items.
func (c *Context) joinKey(e ast.Expr, valueEq bool) (xdm.Sequence, error) {
	s, err := c.Eval(e)
	if err != nil {
		return nil, err
	}
	atoms := xdm.AtomizeSequence(s)
	if valueEq {
		if _, err := atoms.AtMostOne(); err != nil {
			return nil, err
		}
	}
	return atoms, nil
}

// outerPulled reports whether the predicate the join replaces is a
// general comparison with the outer key on the left: such a comparison
// evaluates its right operand, the inner key, first and never pulls the
// left one when the right one is empty.
func outerPulled(jp *ast.JoinPlan) bool {
	return !jp.ValueEq && jp.OuterLeft
}

// buildJoin evaluates the build domain and buckets it, in the context
// of the first outer tuple to arrive (the domain and the build keys
// depend on no outer variable). The nested loop this replaces would
// first evaluate the predicate on that tuple and the first domain item,
// one operand before the other — or, when the outer key is pulled, on
// the first domain item whose inner key is not empty — so one
// evaluation of the outer key is interleaved at that very place:
// whichever error the nested loop would have surfaced first, this
// surfaces first.
func (en *flworEntry) buildJoin(c *Context) error {
	jp := en.f.Join
	cl := &en.f.Clauses[jp.Clause]
	domain, err := c.Eval(cl.In)
	if err != nil {
		return err
	}
	j := &hashJoin{domain: domain, table: map[string][]int{}}
	en.join = j
	if len(domain) == 0 {
		// The predicate never runs over an empty build side, so the
		// outer key is never evaluated either.
		return nil
	}
	// A value comparison evaluates its left operand first; a general
	// comparison its right one (whole), then streams the left.
	outerFirst := jp.OuterLeft == jp.ValueEq
	pulled := outerPulled(jp)
	outerDone := false
	outerOnce := func() error {
		outerDone = true
		_, err := c.joinKey(jp.OuterKey, jp.ValueEq)
		return err
	}
	if outerFirst {
		if err := outerOnce(); err != nil {
			return err
		}
	}
	var lf loopFrame
	for idx := range domain {
		atoms, err := lf.bind(c, cl.Var, domain[idx:idx+1:idx+1]).joinKey(jp.InnerKey, jp.ValueEq)
		if err != nil {
			// The nested loop may fail earlier, in a comparison of an
			// item before this one, so it runs and raises what it meets
			// first.
			j.fallback, j.table = true, nil
			return nil
		}
		for _, a := range atoms {
			if !stringish(a) {
				j.fallback = true
				break
			}
			k := a.String()
			if b := j.table[k]; len(b) == 0 || b[len(b)-1] != idx { // one entry per item, however often it says the key
				j.table[k] = append(b, idx)
			}
		}
		if !outerDone && (!pulled || len(atoms) > 0) {
			if err := outerOnce(); err != nil {
				return err
			}
		}
		if j.fallback {
			j.table = nil
			return nil
		}
	}
	return nil
}

// joinClause is clause for the join's build clause i: it runs the
// remaining clauses for the domain items whose key matches c's.
func (en *flworEntry) joinClause(c *Context, i int) error {
	if en.join == nil {
		if err := en.buildJoin(c); err != nil {
			return err
		}
	}
	j, jp := en.join, en.f.Join
	if len(j.domain) == 0 {
		return nil
	}
	if len(j.table) == 0 && !j.fallback && outerPulled(jp) {
		// No inner key had an item, so the comparison never pulls the
		// outer key and no tuple matches.
		return nil
	}
	v := en.f.Clauses[i].Var
	var lf loopFrame
	walk := func() error {
		for idx := range j.domain {
			if err := en.joinTuple(en.bindFor(&lf, c, v, j.domain[idx:idx+1:idx+1], dom.QName{}, nil), i); err != nil {
				return err
			}
		}
		return nil
	}
	if j.fallback {
		return walk()
	}
	atoms, err := c.joinKey(jp.OuterKey, jp.ValueEq)
	if err != nil {
		return err
	}
	for _, a := range atoms {
		if !stringish(a) {
			return walk()
		}
	}
	var idxs []int
	if len(atoms) == 1 {
		idxs = j.table[atoms[0].String()] // the bucket as it is: ascending, each item once
	} else {
		// Several probe atoms can hit one item, and hit items out of
		// order: domain order, each item once.
		for _, a := range atoms {
			idxs = append(idxs, j.table[a.String()]...)
		}
		sort.Ints(idxs)
		n := 0
		for k, idx := range idxs {
			if k == 0 || idx != idxs[k-1] {
				idxs[n] = idx
				n++
			}
		}
		idxs = idxs[:n]
	}
	for _, idx := range idxs {
		if err := en.clause(en.bindFor(&lf, c, v, j.domain[idx:idx+1:idx+1], dom.QName{}, nil), i+1); err != nil {
			return err
		}
	}
	return nil
}

// joinTuple is the nested loop's step: c has the build clause's variable
// bound, and the join predicate decides, in the place the where conjunct
// it was had, whether the tuple goes on.
func (en *flworEntry) joinTuple(c *Context, i int) error {
	keep, err := c.evalEBV(en.f.Join.Pred)
	if err != nil || !keep {
		return err
	}
	return en.clause(c, i+1)
}
