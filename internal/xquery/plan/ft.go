package plan

import (
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// Full-text planning: a descendant step whose first predicate is
// ". ftcontains <literal selection>" upgrades to AccessFT, so the
// runtime enumerates candidates from the document's inverted postings
// instead of walking the subtree. Like the other access methods the
// annotation is advisory — the evaluator re-applies the node test and
// every predicate (the ftcontains included) to each candidate, so the
// probe only has to produce a superset of the true matches.

// ftProbePred recognises the probe-able first-predicate shape: an
// ftcontains whose search context is the context item itself and whose
// word sources are all string literals or sequences of them
// (FTStaticPhrases; anything dynamic must wait for evaluation). Returns the selection for the runtime to compile.
func ftProbePred(p ast.Expr) (ast.FTSelection, bool) {
	ftc, ok := p.(ast.FTContains)
	if !ok {
		return nil, false
	}
	if _, ok := ftc.X.(ast.ContextItem); !ok {
		return nil, false
	}
	static := true
	ast.EachChild(ast.FTContains{Sel: ftc.Sel}, func(src ast.Expr) {
		_, ok := FTStaticPhrases(src)
		static = static && ok
	})
	if !static {
		return nil, false
	}
	return ftc.Sel, true
}

// FTProbeSelection re-exposes the probe-pred recognition to the
// runtime: given a step annotated AccessFT, it extracts the literal
// selection from the first predicate. ok is false when the predicate
// is not the planned shape (a stale annotation is treated as a scan).
func FTProbeSelection(p ast.Expr) (ast.FTSelection, bool) {
	return ftProbePred(p)
}

// FTStaticPhrases extracts the phrase list a literal word source
// denotes: a single string literal, or a sequence expression of string
// literals. ok is false for anything dynamic.
func FTStaticPhrases(e ast.Expr) ([]string, bool) {
	switch x := e.(type) {
	case ast.StringLit:
		return []string{x.Val}, true
	case ast.SeqExpr:
		out := make([]string, 0, len(x.Items))
		for _, it := range x.Items {
			lit, ok := it.(ast.StringLit)
			if !ok {
				return nil, false
			}
			out = append(out, lit.Val)
		}
		return out, true
	default:
		return nil, false
	}
}

// ftSelAnswerable mirrors the index's candidate-set logic: a selection
// the postings can bound from above. ftnot bounds nothing; ftor needs
// both sides bounded; ftand needs either. Annotating an unanswerable
// selection would be correct (the runtime falls back to scanning) but
// pointless, so the planner refuses it.
func ftSelAnswerable(sel ast.FTSelection) bool {
	switch s := sel.(type) {
	case ast.FTWords:
		return true
	case ast.FTAnd:
		return ftSelAnswerable(s.L) || ftSelAnswerable(s.R)
	case ast.FTOr:
		return ftSelAnswerable(s.L) && ftSelAnswerable(s.R)
	case ast.FTNot:
		return false
	default:
		_ = s
		return false
	}
}

// ftProbeTestOK restricts AccessFT to node tests that only match node
// kinds the full-text index ranges: elements and text nodes. The index
// never sees comments or processing instructions, so a node() or
// comment() test probed through it would lose matches — those shapes
// keep scanning.
func ftProbeTestOK(t ast.NodeTest) bool {
	switch {
	case t.AnyNode:
		return false
	case t.IsName:
		// Name tests on the descendant axes match elements only
		// (attributes live on their own axis).
		return true
	default:
		return t.Kind == xdm.TElementNode || t.Kind == xdm.TTextNode
	}
}
