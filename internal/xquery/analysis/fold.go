package analysis

import (
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
)

// Pass 4: constant folding and cost annotation. The folding itself
// lives in internal/xquery/plan (plan.Fold), where the algebraic
// optimizer reuses it to rewrite trees before compilation; the
// analyzer delegates so both passes agree on what is constant. The
// step estimate is saturating and uses the same unit as the runtime
// budget (one step per expression evaluation or streamed item), so a
// program estimated at E steps run under MaxSteps < E is likely to
// trip runtime.ErrBudgetExceeded.

// Cardinality and iteration guesses for statically unknown shapes.
const (
	unknownCard  = 8    // items assumed in an unknown sequence
	descScanCard = 64   // subtree nodes assumed for an unindexed descendant scan
	whileIters   = 64   // iterations assumed for a while loop
	recursionEst = 1024 // cost assumed for a recursive user function
	cardCap      = 1 << 20
	costCap      = int64(1) << 40
)

// constBool folds e and takes its effective boolean value.
func (c *checker) constBool(e ast.Expr) (bool, bool) {
	return plan.FoldBool(e)
}

// fold evaluates e if it is a constant expression (see plan.Fold).
func (c *checker) fold(e ast.Expr) (plan.Const, bool) {
	return plan.Fold(e)
}

// --- step estimation -------------------------------------------------------

func satAdd(a, b int64) int64 {
	s := a + b
	if s < a || s > costCap {
		return costCap
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}

// cardOf estimates the number of items e yields.
func (c *checker) cardOf(e ast.Expr) int64 {
	switch x := e.(type) {
	case ast.Range:
		l, lok := c.fold(x.L)
		r, rok := c.fold(x.R)
		if lok && rok && l.Kind == plan.ConstInt && r.Kind == plan.ConstInt {
			n := r.I - l.I + 1
			if n < 0 {
				return 0
			}
			if n > cardCap {
				return cardCap
			}
			return n
		}
		return unknownCard
	case ast.SeqExpr:
		var n int64
		for _, it := range x.Items {
			n = satAdd(n, c.cardOf(it))
			if n > cardCap {
				return cardCap
			}
		}
		return n
	case ast.IntLit, ast.DecimalLit, ast.DoubleLit, ast.StringLit,
		ast.DirElem, ast.CompConstructor, ast.ContextItem:
		return 1
	default:
		return unknownCard
	}
}

// estimate computes the saturating step estimate for e. The kinds
// named here have a cardinality or a cost of their own; every other
// kind costs one step plus its children (ast.EachChild).
func (c *checker) estimate(e ast.Expr) int64 {
	switch x := e.(type) {
	case nil:
		return 0
	case ast.Ordered:
		return c.estimate(x.X)
	case ast.Hoisted:
		return c.estimate(x.X)
	case ast.FuncCall:
		return satAdd(c.stepAndChildren(x), c.callEstimate(x))
	case ast.If:
		t := satAdd(1, c.estimate(x.Cond))
		thenE, elseE := c.estimate(x.Then), c.estimate(x.Else)
		if elseE > thenE {
			thenE = elseE
		}
		return satAdd(t, thenE)
	case ast.FLWOR:
		t := int64(1)
		card := int64(1)
		for _, cl := range x.Clauses {
			t = satAdd(t, satMul(card, c.estimate(cl.In)))
			if cl.For {
				card = satMul(card, c.cardOf(cl.In))
				if card > cardCap {
					card = cardCap
				}
			}
		}
		inner := c.estimate(x.Where)
		if x.Join != nil {
			inner = satAdd(inner, c.estimate(x.Join.Pred))
		}
		for _, os := range x.OrderBy {
			inner = satAdd(inner, c.estimate(os.Key))
		}
		inner = satAdd(inner, c.estimate(x.Return))
		return satAdd(t, satMul(card, inner))
	case ast.Quantified:
		t := int64(1)
		card := int64(1)
		for _, cl := range x.Vars {
			t = satAdd(t, c.estimate(cl.In))
			card = satMul(card, c.cardOf(cl.In))
			if card > cardCap {
				card = cardCap
			}
		}
		return satAdd(t, satMul(card, c.estimate(x.Satisfies)))
	case ast.Typeswitch:
		t := satAdd(1, c.estimate(x.Operand))
		max := c.estimate(x.Default)
		for _, cs := range x.Cases {
			if b := c.estimate(cs.Body); b > max {
				max = b
			}
		}
		return satAdd(t, max)
	case ast.Range:
		// Materialising a range costs about its cardinality.
		return satAdd(1, c.cardOf(x))
	case ast.Path:
		t := int64(1)
		card := int64(1)
		// These are the steps the evaluator runs: the planner has
		// merged descendant-or-self::node()/child::X pairs, and its
		// access annotation decides whether a descendant step is an
		// index probe (O(matches), costed at unknownCard like any
		// other step) or a subtree scan (O(tree), costed at the larger
		// descScanCard) — so XQ0301 charges indexed descendant steps
		// for their matches, not the tree.
		for _, st := range x.Steps {
			if st.Primary != nil {
				t = satAdd(t, satMul(card, c.estimate(st.Primary)))
				card = satMul(card, c.cardOf(st.Primary))
			} else if st.Access == ast.AccessIndexID {
				// An id probe answers from the index with at most a
				// handful of candidates, and the [@id = ...] predicate
				// it was planned from re-applies to that short list —
				// not to the unknownCard-per-frontier-node expansion a
				// scan would produce. Keep the post-probe cardinality
				// at the frontier size so the predicate loop below
				// charges probed predicates at post-probe cost;
				// charging them at the expanded cardinality made
				// XQ0301 fire spuriously on indexed pages.
				t = satAdd(t, card)
			} else if st.Access == ast.AccessFT {
				// A full-text probe enumerates candidates from the
				// document's posting lists — O(matches), like the other
				// probes — so charge the frontier, not the subtree.
				t = satAdd(t, card)
			} else if (st.Axis == ast.AxisDescendant || st.Axis == ast.AxisDescendantOrSelf) &&
				st.Access == ast.AccessScan {
				// An unindexed descendant step walks whole subtrees.
				t = satAdd(t, satMul(card, descScanCard))
				card = satMul(card, unknownCard)
			} else {
				// An axis step visits the frontier and expands it.
				t = satAdd(t, satMul(card, unknownCard))
				card = satMul(card, unknownCard)
			}
			if card > cardCap {
				card = cardCap
			}
			first := 0
			if st.Access == ast.AccessFT && len(st.Preds) > 0 {
				// The planned ftcontains re-applies to the candidates
				// through the index's token windows — one step per
				// candidate, not the tokenize-the-subtree cost the
				// general FTContains estimate charges an unindexed
				// selection. Without this the probe's own predicate
				// made XQ0301 fire on indexed full-text pages.
				t = satAdd(t, card)
				first = 1
			}
			for i := first; i < len(st.Preds); i++ {
				if st.PredPlan(i).Kind == ast.PredAttrCmp {
					// Tested natively: the candidate's own step, not
					// what interpreting the comparison would cost.
					t = satAdd(t, card)
					continue
				}
				t = satAdd(t, satMul(card, c.estimate(st.Preds[i])))
			}
		}
		return t
	case ast.While:
		if b, ok := c.constBool(x.Cond); ok && !b {
			return satAdd(1, c.estimate(x.Cond))
		}
		body := satAdd(c.estimate(x.Cond), c.estimate(x.Body))
		return satAdd(1, satMul(whileIters, body))
	case ast.FTContains:
		// An unindexed ftcontains tokenizes every input item's whole
		// string value — a full subtree scan per item, same unit as an
		// unindexed descendant step. (Selections planned into an
		// AccessFT probe are charged post-probe by the Path branch
		// above, which never reaches this case for the probed
		// predicate.)
		return satAdd(satMul(c.cardOf(x.X), descScanCard), c.estimate(x.X))
	}
	return c.stepAndChildren(e)
}

// stepAndChildren is one step for e plus the estimate of each child.
func (c *checker) stepAndChildren(e ast.Expr) int64 {
	t := int64(1)
	ast.EachChild(e, func(ch ast.Expr) { t = satAdd(t, c.estimate(ch)) })
	return t
}

// callEstimate prices the callee: user functions are estimated from
// their body (memoised; recursion falls back to a flat guess), built-ins
// count as one step.
func (c *checker) callEstimate(fc ast.FuncCall) int64 {
	decls, ok := c.funcs[fnKey(fc.Name)]
	if !ok {
		return 1
	}
	for _, d := range decls {
		if len(d.Params) != len(fc.Args) || d.Body == nil {
			continue
		}
		if est, done := c.estMemo[d]; done {
			return est
		}
		if c.estBusy[d] {
			return recursionEst
		}
		c.estBusy[d] = true
		est := c.estimate(d.Body)
		delete(c.estBusy, d)
		c.estMemo[d] = est
		return est
	}
	return 1
}
