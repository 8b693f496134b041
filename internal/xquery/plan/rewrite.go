package plan

import "repro/internal/xquery/ast"

// mergeDescendantSteps merges the parser's expansion of "//" —
// descendant-or-self::node()/child::X — into a single descendant::X
// step. The merge regroups candidates from per-parent child lists into
// one global walk, which changes predicate positions, so it only
// applies when X's predicates are statically position-free (//div[1]
// keeps the two-step form; //div[@id] merges). descendant::X is exactly
// the shape the name/id indexes serve, which is how //x becomes an
// index probe. steps is the planner's own copy and is compacted in
// place.
func mergeDescendantSteps(steps []ast.Step) []ast.Step {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		if i+1 < len(steps) && isAnyDescOrSelf(steps[i]) && isPositionFreeChildStep(steps[i+1]) {
			i++
			steps[i].Axis = ast.AxisDescendant
		}
		out = append(out, steps[i])
	}
	return out
}

func isAnyDescOrSelf(s ast.Step) bool {
	return s.Primary == nil && s.Axis == ast.AxisDescendantOrSelf &&
		s.Test.AnyNode && len(s.Preds) == 0
}

func isPositionFreeChildStep(s ast.Step) bool {
	if s.Primary != nil || s.Axis != ast.AxisChild {
		return false
	}
	for _, p := range s.Preds {
		if !BooleanValuedPred(p) || ExprMentions(p, "position") || ExprMentions(p, "last") {
			return false
		}
	}
	return true
}

// BooleanValuedPred reports whether a predicate can statically never
// produce a numeric singleton (which would make it a positional test).
// Conservative: unknown shapes answer false.
func BooleanValuedPred(e ast.Expr) bool {
	switch x := e.(type) {
	case ast.Compare, ast.Quantified, ast.InstanceOf, ast.FTContains, ast.StringLit:
		return true
	case ast.CastAs:
		return x.Castable
	case ast.Binary:
		return x.Op == "and" || x.Op == "or"
	case ast.Path:
		// A path ending in an axis step yields nodes: EBV-by-existence.
		n := len(x.Steps)
		return n > 0 && x.Steps[n-1].Primary == nil
	default:
		return false
	}
}

// AnyExprMentions reports whether any expression in the list mentions
// a call to the given function (see ExprMentions).
func AnyExprMentions(es []ast.Expr, local string) bool {
	for _, e := range es {
		if ExprMentions(e, local) {
			return true
		}
	}
	return false
}

// ExprMentions reports whether an expression tree contains a function
// call with the given local name. It is deliberately conservative:
// unknown expression kinds answer true, so a caller relying on a false
// answer (to stream, to rewrite) can never be wrong.
func ExprMentions(e ast.Expr, local string) bool {
	switch x := e.(type) {
	case nil:
		return false
	case ast.StringLit, ast.IntLit, ast.DecimalLit, ast.DoubleLit,
		ast.VarRef, ast.ContextItem:
		return false
	case ast.SeqExpr:
		return AnyExprMentions(x.Items, local)
	case ast.Ordered:
		return ExprMentions(x.X, local)
	case ast.FuncCall:
		if x.Name.Local == local {
			return true
		}
		return AnyExprMentions(x.Args, local)
	case ast.If:
		return ExprMentions(x.Cond, local) || ExprMentions(x.Then, local) ||
			ExprMentions(x.Else, local)
	case ast.FLWOR:
		for _, c := range x.Clauses {
			if ExprMentions(c.In, local) {
				return true
			}
		}
		for _, o := range x.OrderBy {
			if ExprMentions(o.Key, local) {
				return true
			}
		}
		return ExprMentions(x.Where, local) || ExprMentions(x.Return, local)
	case ast.Quantified:
		for _, c := range x.Vars {
			if ExprMentions(c.In, local) {
				return true
			}
		}
		return ExprMentions(x.Satisfies, local)
	case ast.Typeswitch:
		if ExprMentions(x.Operand, local) || ExprMentions(x.Default, local) {
			return true
		}
		for _, c := range x.Cases {
			if ExprMentions(c.Body, local) {
				return true
			}
		}
		return false
	case ast.Binary:
		return ExprMentions(x.L, local) || ExprMentions(x.R, local)
	case ast.Compare:
		return ExprMentions(x.L, local) || ExprMentions(x.R, local)
	case ast.Range:
		return ExprMentions(x.L, local) || ExprMentions(x.R, local)
	case ast.Unary:
		return ExprMentions(x.X, local)
	case ast.InstanceOf:
		return ExprMentions(x.X, local)
	case ast.TreatAs:
		return ExprMentions(x.X, local)
	case ast.CastAs:
		return ExprMentions(x.X, local)
	case ast.Path:
		for _, s := range x.Steps {
			if ExprMentions(s.Primary, local) || AnyExprMentions(s.Preds, local) {
				return true
			}
		}
		return false
	case ast.DirElem:
		for _, a := range x.Attrs {
			if AnyExprMentions(a.Pieces, local) {
				return true
			}
		}
		return AnyExprMentions(x.Content, local)
	case ast.CompConstructor:
		return ExprMentions(x.NameExpr, local) || ExprMentions(x.Content, local)
	case ast.FTContains:
		return ExprMentions(x.X, local) || ftMentions(x.Sel, local)
	default:
		return true
	}
}

func ftMentions(sel ast.FTSelection, local string) bool {
	switch s := sel.(type) {
	case ast.FTWords:
		return ExprMentions(s.Source, local)
	case ast.FTAnd:
		return ftMentions(s.L, local) || ftMentions(s.R, local)
	case ast.FTOr:
		return ftMentions(s.L, local) || ftMentions(s.R, local)
	case ast.FTNot:
		return ftMentions(s.X, local)
	default:
		return true
	}
}
