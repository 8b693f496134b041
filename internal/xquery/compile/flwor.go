package compile

import (
	"fmt"
	"sort"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/runtime"
)

// cclause is one compiled FLWOR clause: the domain closure plus the
// frame slots its variables resolved to.
type cclause struct {
	isFor    bool
	slot     int
	posSlot  int // -1 when the clause has no positional variable
	typ      *xdm.SeqType
	varLocal string
	dom      Closure
}

// cjoin is the compiled form of an optimizer join annotation. The
// inner-key closures see the build clause's variable; the outer-key
// closures were compiled before it entered scope.
type cjoin struct {
	idx       int // clause index of the inner (build) side
	valueEq   bool
	outerLeft bool
	outerItem itemClosure // eq: outer probe key
	innerItem itemClosure // eq: build key
	outerSeq  Closure     // =: outer probe key sequence
	innerSeq  Closure     // =: build key sequence
	pred      ebvClosure  // original predicate, for the fallback path
}

// flwor compiles a FLWOR expression. For and let variables get frame
// slots; domains evaluate eagerly (the walker streams them, so the two
// backends can differ in how far a failing domain gets before its
// error surfaces — but never in the value produced). A join annotation
// turns the inner for clause into a lazily built hash table keyed by
// string value; keys outside the string comparison class fall back to
// per-tuple predicate evaluation, which is exactly the walker's plan.
func (u *unitCompiler) flwor(f ast.FLWOR) Closure {
	mark := len(u.scope)
	hoistLo := u.nHoist

	var jn *cjoin
	joinIdx := -1
	if f.Join != nil {
		joinIdx = f.Join.Clause
	}

	clauses := make([]cclause, len(f.Clauses))
	for i, cl := range f.Clauses {
		cc := cclause{isFor: cl.For, posSlot: -1, typ: cl.Type, varLocal: cl.Var.Local}
		cc.dom = u.expr(cl.In)
		if i == joinIdx {
			jp := f.Join
			jn = &cjoin{idx: i, valueEq: jp.ValueEq, outerLeft: jp.OuterLeft}
			// The outer key sees only earlier clause variables: compile
			// it before the build variable enters scope.
			if jp.ValueEq {
				jn.outerItem = u.atomOne(jp.OuterKey)
			} else {
				jn.outerSeq = u.expr(jp.OuterKey)
			}
		}
		cc.slot = u.push(cl.Var)
		if cl.For && !cl.PosVar.IsZero() {
			cc.posSlot = u.push(cl.PosVar)
		}
		if i == joinIdx {
			jp := f.Join
			if jp.ValueEq {
				jn.innerItem = u.atomOne(jp.InnerKey)
			} else {
				jn.innerSeq = u.expr(jp.InnerKey)
			}
			jn.pred = u.ebv(jp.Pred)
		}
		clauses[i] = cc
	}

	var whereC ebvClosure
	if f.Where != nil {
		whereC = u.ebv(f.Where)
	}
	ordered := len(f.OrderBy) > 0
	specs := f.OrderBy
	orderKeys := make([]itemClosure, len(f.OrderBy))
	for k, spec := range f.OrderBy {
		orderKeys[k] = u.atomOne(spec.Key)
	}
	retC := u.expr(f.Return)

	u.popTo(mark)
	hoistHi := u.nHoist
	ship := f.Ship

	return func(c *Ctx) (xdm.Sequence, error) {
		// A FLWOR the planner annotated as a per-document map over a
		// collection is answered by the run's shipping resolver when
		// there is one (an annotated fn:count streams, so it reaches the
		// walker's identical check through its bridge).
		if ship != nil {
			if s, ok, err := c.R.EvalShipped(ship); ok {
				return s, err
			}
		}
		// A fresh entry invalidates the hoist memos of this FLWOR's
		// subtree: invariance holds within one entry, not across
		// entries (the hoisted expression may read outer variables).
		for i := hoistLo; i < hoistHi; i++ {
			c.hoist[i] = hoistCell{}
		}

		var out xdm.Sequence
		type tuple struct {
			frame []xdm.Sequence
			keys  []xdm.Item
		}
		var tuples []tuple

		// Hash-join state, built at the first arrival at the join
		// clause and living for one FLWOR entry.
		var (
			jReady    bool
			jFallback bool
			jDomain   xdm.Sequence
			jTable    map[string][]int
		)

		var rec func(i int) error

		bindFor := func(cl *cclause, item xdm.Item, pos int, i int) error {
			if err := c.R.Budget.Step(); err != nil {
				return err
			}
			one := xdm.Singleton(item)
			if cl.typ != nil {
				cv, err := runtime.ConvertValue(one, *cl.typ)
				if err != nil {
					return fmt.Errorf("xquery: for $%s: %w", cl.varLocal, err)
				}
				one = cv
			}
			c.frame[cl.slot] = one
			if cl.posSlot >= 0 {
				c.frame[cl.posSlot] = xdm.Singleton(xdm.Integer(pos))
			}
			return rec(i + 1)
		}

		// predLoop is the non-hash path: bind every build-side item and
		// gate on the original predicate, exactly as the walker does.
		predLoop := func(cl *cclause, seq xdm.Sequence, i int) error {
			for _, item := range seq {
				if err := c.R.Budget.Step(); err != nil {
					return err
				}
				c.frame[cl.slot] = xdm.Singleton(item)
				keep, err := jn.pred(c)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}

		// buildJoin evaluates the build domain and its keys once. Key
		// evaluation interleaves with one outer-key evaluation so the
		// first error surfaced matches the walker's comparison order:
		// outerFirst when the walker would evaluate the probe side of
		// the first predicate instance first.
		buildJoin := func(cl *cclause) error {
			jReady = true
			outerFirst := jn.outerLeft
			if !jn.valueEq && !c.R.NoStream {
				// Streaming general comparison evaluates its right
				// operand eagerly first.
				outerFirst = !jn.outerLeft
			}
			seq, err := cl.dom(c)
			if err != nil {
				return err
			}
			jDomain = seq
			if len(seq) == 0 {
				// The predicate never runs on an empty build side, so
				// the walker never evaluates the outer key either.
				return nil
			}
			evalOuterOnce := func() error {
				if jn.valueEq {
					_, err := jn.outerItem(c)
					return err
				}
				_, err := jn.outerSeq(c)
				return err
			}
			if outerFirst {
				if err := evalOuterOnce(); err != nil {
					return err
				}
			}
			jTable = map[string][]int{}
			bucket := func(idx int, it xdm.Item) {
				k := it.String()
				b := jTable[k]
				if n := len(b); n > 0 && b[n-1] == idx {
					return // duplicate atom within one item's key
				}
				jTable[k] = append(b, idx)
			}
			for idx, item := range seq {
				if err := c.R.Budget.Step(); err != nil {
					return err
				}
				c.frame[cl.slot] = xdm.Singleton(item)
				if jn.valueEq {
					it, err := jn.innerItem(c)
					if err != nil {
						return err
					}
					switch {
					case it == nil:
						// empty key: eq never matches, no bucket
					case !stringish(it):
						jFallback = true
					default:
						bucket(idx, it)
					}
				} else {
					s, err := jn.innerSeq(c)
					if err != nil {
						return err
					}
					for _, a := range xdm.AtomizeSequence(s) {
						if !stringish(a) {
							jFallback = true
							break
						}
						bucket(idx, a)
					}
				}
				if idx == 0 && !outerFirst {
					if err := evalOuterOnce(); err != nil {
						return err
					}
				}
				if jFallback {
					jTable = nil
					return nil
				}
			}
			return nil
		}

		emitIdx := func(cl *cclause, idx int, i int) error {
			if err := c.R.Budget.Step(); err != nil {
				return err
			}
			c.frame[cl.slot] = xdm.Singleton(jDomain[idx])
			return rec(i + 1)
		}

		joinStep := func(cl *cclause, i int) error {
			if c.R.SnapshotApply != nil {
				// Sequential mode: updates may apply between
				// iterations, so nothing about the build side is
				// stable. Re-evaluate domain and predicate per tuple.
				seq, err := cl.dom(c)
				if err != nil {
					return err
				}
				return predLoop(cl, seq, i)
			}
			if !jReady {
				if err := buildJoin(cl); err != nil {
					return err
				}
			}
			if len(jDomain) == 0 {
				return nil
			}
			if jFallback {
				return predLoop(cl, jDomain, i)
			}
			if jn.valueEq {
				okey, err := jn.outerItem(c)
				if err != nil {
					return err
				}
				if okey == nil {
					return nil
				}
				if !stringish(okey) {
					// A probe key outside the string class compares by
					// value rules the table cannot answer; this tuple
					// walks the predicate instead.
					return predLoop(cl, jDomain, i)
				}
				for _, idx := range jTable[okey.String()] {
					if err := emitIdx(cl, idx, i); err != nil {
						return err
					}
				}
				return nil
			}
			oseq, err := jn.outerSeq(c)
			if err != nil {
				return err
			}
			atoms := xdm.AtomizeSequence(oseq)
			for _, a := range atoms {
				if !stringish(a) {
					return predLoop(cl, jDomain, i)
				}
			}
			var idxs []int
			seen := map[int]bool{}
			for _, a := range atoms {
				for _, idx := range jTable[a.String()] {
					if !seen[idx] {
						seen[idx] = true
						idxs = append(idxs, idx)
					}
				}
			}
			sort.Ints(idxs) // document (domain) order, not probe order
			for _, idx := range idxs {
				if err := emitIdx(cl, idx, i); err != nil {
					return err
				}
			}
			return nil
		}

		rec = func(i int) error {
			if i == len(clauses) {
				if whereC != nil {
					keep, err := whereC(c)
					if err != nil {
						return err
					}
					if !keep {
						return nil
					}
				}
				if ordered {
					t := tuple{frame: append([]xdm.Sequence(nil), c.frame...)}
					for _, kc := range orderKeys {
						k, err := kc(c)
						if err != nil {
							return err
						}
						t.keys = append(t.keys, k)
					}
					tuples = append(tuples, t)
					return nil
				}
				res, err := retC(c)
				if err != nil {
					return err
				}
				out = append(out, res...)
				return nil
			}
			cl := &clauses[i]
			if !cl.isFor {
				val, err := cl.dom(c)
				if err != nil {
					return err
				}
				if cl.typ != nil {
					if val, err = runtime.ConvertValue(val, *cl.typ); err != nil {
						return fmt.Errorf("xquery: let $%s: %w", cl.varLocal, err)
					}
				}
				c.frame[cl.slot] = val
				return rec(i + 1)
			}
			if jn != nil && i == jn.idx {
				return joinStep(cl, i)
			}
			seq, err := cl.dom(c)
			if err != nil {
				return err
			}
			for pos, item := range seq {
				if err := bindFor(cl, item, pos+1, i); err != nil {
					return err
				}
			}
			return nil
		}

		if err := rec(0); err != nil {
			return nil, err
		}
		if !ordered {
			return out, nil
		}

		var sortErr error
		sort.SliceStable(tuples, func(a, b int) bool {
			if sortErr != nil {
				return false
			}
			for k := range specs {
				cres, err := runtime.CompareOrderKeys(tuples[a].keys[k], tuples[b].keys[k], specs[k])
				if err != nil {
					sortErr = err
					return false
				}
				if cres != 0 {
					return cres < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for _, t := range tuples {
			copy(c.frame, t.frame)
			res, err := retC(c)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return out, nil
	}
}
