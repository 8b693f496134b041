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

// ExprMentions reports whether an expression tree contains a function
// call with the given local name, in any namespace.
func ExprMentions(e ast.Expr, local string) bool {
	return contains(e, func(x ast.Expr) bool {
		c, ok := x.(ast.FuncCall)
		return ok && c.Name.Local == local
	})
}
