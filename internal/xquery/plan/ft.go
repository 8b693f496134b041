package plan

import (
	"errors"
	"fmt"

	"repro/internal/fulltext"
	ftindex "repro/internal/fulltext/index"
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

// FTProbe recognises the probe-able first-predicate shape: an
// ftcontains whose search context is the context item itself and whose
// selection the planner resolved because every word source is a string
// literal or a sequence of them (LitSel; anything computed must wait
// for evaluation). The planner upgrades a step to AccessFT on it, and
// the runtime probes with its LitSel; ok is false for any other
// predicate (a stale annotation is treated as a scan).
func FTProbe(p ast.Expr) (ast.FTContains, bool) {
	ftc, ok := p.(ast.FTContains)
	if !ok || ftc.LitSel == nil {
		return ftc, false
	}
	_, dot := ftc.X.(ast.ContextItem)
	return ftc, dot
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

// ResolveFTSelection converts a selection into the AST-free form the
// full-text index and the scan matcher share, with words giving each
// word source's phrases: the runtime's evaluate the sources, the
// planner's (literalSelection) read literals.
func ResolveFTSelection(sel ast.FTSelection, words func(ast.Expr) ([]string, error)) (ftindex.Sel, error) {
	switch s := sel.(type) {
	case ast.FTWords:
		phrases, err := words(s.Source)
		if err != nil {
			return nil, err
		}
		return ftindex.Words{
			Phrases: phrases,
			All:     s.AnyAll == "all",
			Opts: fulltext.Options{
				Stemming:      s.Opts.Stemming,
				CaseSensitive: s.Opts.CaseSensitive,
				Wildcards:     s.Opts.Wildcards,
			},
		}, nil
	case ast.FTAnd:
		l, err := ResolveFTSelection(s.L, words)
		if err != nil {
			return nil, err
		}
		r, err := ResolveFTSelection(s.R, words)
		if err != nil {
			return nil, err
		}
		return ftindex.And{L: l, R: r}, nil
	case ast.FTOr:
		l, err := ResolveFTSelection(s.L, words)
		if err != nil {
			return nil, err
		}
		r, err := ResolveFTSelection(s.R, words)
		if err != nil {
			return nil, err
		}
		return ftindex.Or{L: l, R: r}, nil
	case ast.FTNot:
		x, err := ResolveFTSelection(s.X, words)
		if err != nil {
			return nil, err
		}
		return ftindex.Not{X: x}, nil
	default:
		return nil, fmt.Errorf("xquery: unknown full-text selection %T", sel)
	}
}

// errNotLiteral stops literalSelection at a computed word source.
var errNotLiteral = errors.New("plan: a word source is not a literal")

// literalSelection resolves sel once, for every evaluation, when each
// of its word sources is a literal (FTStaticPhrases): the value an
// evaluation would compute, as a literal cannot fail or differ. nil
// means a source is computed.
func literalSelection(sel ast.FTSelection) ftindex.Sel {
	lit, err := ResolveFTSelection(sel, func(src ast.Expr) ([]string, error) {
		if phrases, ok := FTStaticPhrases(src); ok {
			return phrases, nil
		}
		return nil, errNotLiteral
	})
	if err != nil {
		return nil
	}
	return lit
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
