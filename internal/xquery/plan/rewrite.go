package plan

import "repro/internal/xquery/ast"

// mergeDescendantSteps merges the parser's expansion of "//" —
// descendant-or-self::node()/child::X — into a single descendant::X
// step. The merge regroups candidates from per-parent child lists into
// one global walk, which changes predicate positions, so it only
// applies when X's predicates are statically position-free (//div[1]
// keeps the two-step form; //div[@id] merges). descendant::X is exactly
// the shape the name index and the id map serve, which is how //x
// becomes an index probe. steps is the planner's own copy and is compacted in
// place.
func (in *inference) mergeDescendantSteps(steps []ast.Step) []ast.Step {
	out := steps[:0]
	for i := 0; i < len(steps); i++ {
		if i+1 < len(steps) && isAnyDescOrSelf(steps[i]) && in.isPositionFreeChildStep(steps[i+1]) {
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

// isPositionFreeChildStep: a child step whose predicates can never be a
// numeric singleton and mention neither position() nor last().
func (in *inference) isPositionFreeChildStep(s ast.Step) bool {
	if s.Primary != nil || s.Axis != ast.AxisChild {
		return false
	}
	for _, p := range s.Preds {
		if r := in.infer(p); !r.boolean || r.eff&(ast.EffReadsPosition|ast.EffReadsLast) != 0 {
			return false
		}
	}
	return true
}
