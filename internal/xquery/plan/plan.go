// Package plan is the compile-time path planner: the pass between
// parsing and evaluation that makes every static decision about a path
// step, so the evaluators decide nothing per evaluation. Annotate
// replaces a module's expressions with their planned forms, in which
//
//   - the parser's expansion of "//" — descendant-or-self::node()/
//     child::X — is one descendant::X step wherever X's predicates are
//     statically position-free (mergeDescendantSteps);
//   - every step predicate carries an ast.PredPlan: it needs the input
//     size (mentions last()), it streams, it streams and stops at a
//     static positional bound, or it is the attribute comparison
//     @a = K / @a eq K the runtime can test natively, K being whatever
//     the inference calls step-invariant (classifyPred, stepInvariant
//     in props.go);
//   - every axis step carries its access method: descendant::x /
//     descendant-or-self::x with a concrete element name →
//     AccessIndexName (probe the per-document element-name index, see
//     internal/dom/index); the same axes whose first predicate is an
//     attribute comparison of @id → AccessIndexID (probe the tree's id
//     map; the runtime reads the key once per step evaluation and
//     probes the name index instead when its value is not one
//     non-empty string); a first predicate that is a literal
//     ". ftcontains" selection → AccessFT; everything else → AccessScan
//     (walk the axis);
//   - a FLWOR or fn:count over fn:collection(…) that is a map over the
//     collection's documents with atomic results carries an
//     ast.ShipPlan: the per-document expression as text, which a source
//     holding the documents can evaluate in the caller's place (ship.go);
//   - every enclosed expression of a constructor and every insert or
//     replace source that is fresh — its nodes were built for that very
//     evaluation and nothing else can reach them — is marked for
//     adoption, so the node is taken instead of copied (fresh.go);
//   - a FLWOR or quantifier that cannot apply an update before it ends
//     (props.go's midLoop column) streams its domains (StreamDomain).
//
// Access methods and the attribute-comparison kind are advisory: the
// evaluator re-applies the node test and every predicate to probed
// candidates, falls back to scanning whenever an index cannot answer,
// and hands a predicate whose key is not strings to the generic
// predicate stage, so a wrong plan can cost time but never correctness.
// PredSized and a clear StreamDomain are not advisory — one gives
// last() its value, the other keeps a loop from seeing its own updates
// — which is why each is the zero value: what nobody planned runs the
// always-correct way. The evaluator reads the annotations, and
// the static analyzer's cost model reads them to price indexed steps at
// O(matches) instead of O(tree).
//
// Planning replaces expressions of the shared module, which the
// program cache hands to many engines concurrently;
// Module.EnsurePlanned guards the pass with a sync.Once so it runs
// exactly once, before any reader.
//
// Every decision above that depends on what an expression can do or
// yield — may a "//" merge, is a predicate positional, may a key be
// read once per step, is a shipped expression closed and effect-free,
// is an operand fresh — reads one
// record of static properties (props.go), and so do the optimizer's
// rewrites and the store's routing (ast.Module.Effects). The package
// sits below runtime and analysis and imports only the AST.
package plan

import (
	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// fnSpace is the XPath functions namespace (unprefixed calls resolve
// to it).
const fnSpace = "http://www.w3.org/2005/xpath-functions"

// Annotate plans the module: the prolog's global initialisers, every
// function body and the module body are replaced by their planned
// forms. Planning a planned module changes nothing. Call it through
// Module.EnsurePlanned.
func Annotate(m *ast.Module) { annotate(m, newInference(m)) }

func annotate(m *ast.Module, in *inference) {
	p := &planner{in: in}
	for i := range m.Prolog.Vars {
		m.Prolog.Vars[i].Init = p.expr(m.Prolog.Vars[i].Init)
	}
	for i := range m.Prolog.Functions {
		m.Prolog.Functions[i].Body = p.expr(m.Prolog.Functions[i].Body)
	}
	m.Body = p.expr(m.Body)
}

// planner is one Annotate pass over a module.
type planner struct {
	in     *inference  // the static properties of the module's expressions (props.go)
	copied []CopiedLet // what CopiedLets reports
}

// expr returns the planned form of e: children first (ast.MapChildren
// copies, so the steps planned below are the planner's own), then the
// node itself. A FLWOR's let clauses are judged first, for the
// references to their variables below (noteLet).
func (p *planner) expr(e ast.Expr) ast.Expr {
	if f, ok := e.(ast.FLWOR); ok {
		for _, cl := range f.Clauses {
			p.in.noteLet(cl)
		}
	}
	children := p.expr
	if _, ok := e.(ast.DirElem); ok {
		children = p.constructorPiece
	}
	switch x := ast.MapChildren(e, children).(type) {
	case ast.Path:
		x.Steps = p.in.mergeDescendantSteps(x.Steps)
		for i := range x.Steps {
			p.step(&x.Steps[i])
		}
		return x
	case ast.FuncCall:
		x.Ship = p.in.shipCount(x)
		return x
	case ast.StringLit:
		return ast.NewStringLit(x.Val)
	case ast.FTContains:
		x.LitSel = literalSelection(x.Sel)
		return x
	case ast.Quantified:
		x.StreamDomain = p.in.infer(x).eff&midLoop == 0
		return x
	case ast.FLWOR:
		x.StreamDomain = p.in.infer(x).eff&midLoop == 0
		x.Ship = p.in.shipFLWOR(x)
		return x
	case ast.DirElem:
		var adopt []bool // a list of the planner's own: the copy shares its original's
		for i, c := range x.Content {
			if _, text := c.(ast.StringLit); !text && p.adopts(c) {
				if adopt == nil {
					adopt = make([]bool, len(x.Content))
				}
				adopt[i] = true
			}
		}
		x.Adopt = adopt
		return x
	case ast.CompConstructor:
		x.Adopt = x.Content != nil && p.adopts(x.Content)
		return x
	case ast.Insert:
		x.Adopt = p.adopts(x.Source)
		return x
	case ast.Replace:
		x.Adopt = !x.ValueOf && p.adopts(x.With)
		return x
	default:
		return x
	}
}

// constructorPiece plans a piece of a direct element constructor's
// content or attribute value. A literal piece is text the constructor
// copies and never evaluates, so it gets no sequence (NewStringLit).
func (p *planner) constructorPiece(c ast.Expr) ast.Expr {
	if _, text := c.(ast.StringLit); text {
		return c
	}
	return p.expr(c)
}

// adopts reports whether a constructor, insert or replace may take the
// nodes of its operand e as they are (see fresh.go). A reference to a
// let variable that would be fresh were it the only one is noted for
// xqlint.
func (p *planner) adopts(e ast.Expr) bool {
	if p.in.fresh(e) {
		return true
	}
	if v, ok := e.(ast.VarRef); ok {
		if b := p.in.freshLet(v.ID); b != nil {
			p.copied = append(p.copied, CopiedLet{Var: v.Name, At: v.At, Refs: int(b.Refs)})
		}
	}
	return false
}

// step plans one step of the planner's own copy of a path: it
// classifies the predicates, chooses the access method and writes both
// annotations in place.
func (p *planner) step(s *ast.Step) {
	var plans []ast.PredPlan
	if len(s.Preds) > 0 {
		plans = make([]ast.PredPlan, len(s.Preds))
		for i, pr := range s.Preds {
			plans[i] = p.in.classifyPred(pr)
		}
	}
	s.PredPlans = plans
	s.Access = chooseAccess(s)
}

// chooseAccess picks the access method of a step whose predicates are
// already classified.
func chooseAccess(s *ast.Step) ast.AccessMethod {
	if s.Primary != nil {
		return ast.AccessScan
	}
	if s.Axis != ast.AxisDescendant && s.Axis != ast.AxisDescendantOrSelf {
		return ast.AccessScan
	}
	if len(s.Preds) > 0 {
		if isIDCmp(s.PredPlan(0)) {
			return ast.AccessIndexID
		}
		if ftc, ok := FTProbe(s.Preds[0]); ok && ftSelAnswerable(ftc.Sel) && ftProbeTestOK(s.Test) {
			return ast.AccessFT
		}
	}
	if _, _, ok := ProbeName(s.Test); ok {
		return ast.AccessIndexName
	}
	return ast.AccessScan
}

// isIDCmp reports whether a predicate plan is an attribute comparison
// of the no-namespace id attribute.
func isIDCmp(pp ast.PredPlan) bool {
	return pp.Kind == ast.PredAttrCmp && pp.Attr.Space == "" && pp.Attr.Local == "id"
}

// ProbeName extracts the concrete expanded element name an index probe
// would look up: a non-wildcard name test, or an element(N) kind test.
// ok is false for wildcards, node() and non-element kind tests.
func ProbeName(t ast.NodeTest) (space, local string, ok bool) {
	switch {
	case t.AnyNode:
		return "", "", false
	case t.IsName:
		if t.AnySpace || t.Name.Local == "*" {
			return "", "", false
		}
		return t.Name.Space, t.Name.Local, true
	default:
		// Kind tests: only element(N) with a concrete name is a
		// name-index probe; element(), element(*) and the other kinds
		// scan (the name index holds elements only, so probing it for
		// another kind would wrongly answer empty).
		if t.Kind != xdm.TElementNode || !t.HasName || t.KindName.Local == "*" {
			return "", "", false
		}
		return t.KindName.Space, t.KindName.Local, true
	}
}

// classifyPred decides how a predicate's stage evaluates it (see
// ast.PredKind).
func (in *inference) classifyPred(pred ast.Expr) ast.PredPlan {
	if in.infer(pred).eff&ast.EffReadsLast != 0 {
		return ast.PredPlan{Kind: ast.PredSized}
	}
	if bound, ok := positionalBound(pred); ok {
		return ast.PredPlan{Kind: ast.PredBounded, Bound: bound}
	}
	if pp, ok := in.attrComparison(pred); ok {
		return pp
	}
	return ast.PredPlan{Kind: ast.PredStream}
}

// attrComparison recognises @a = K and @a eq K in either operand order,
// with K step-invariant (stepInvariant). Only these are safe to test
// natively and to turn into an id probe: against a string or
// untypedAtomic key the comparison is string equality in both
// comparison families, it never raises and it never reads the focus
// position.
func (in *inference) attrComparison(pred ast.Expr) (ast.PredPlan, bool) {
	c, ok := pred.(ast.Compare)
	if !ok {
		return ast.PredPlan{}, false
	}
	switch {
	case c.Kind == ast.GeneralComp && c.Op == "=":
	case c.Kind == ast.ValueComp && c.Op == "eq":
	default:
		return ast.PredPlan{}, false
	}
	for _, o := range [2][2]ast.Expr{{c.L, c.R}, {c.R, c.L}} {
		if attr, ok := attrStep(o[0]); ok && in.stepInvariant(o[1]) {
			return ast.PredPlan{Kind: ast.PredAttrCmp, Attr: attr, Key: o[1],
				Value: c.Kind == ast.ValueComp}, true
		}
	}
	return ast.PredPlan{}, false
}

// attrStep returns the name a one-step relative path @a selects: a
// concrete attribute name without predicates.
func attrStep(e ast.Expr) (dom.QName, bool) {
	p, ok := e.(ast.Path)
	if !ok || p.Absolute || len(p.Steps) != 1 {
		return dom.QName{}, false
	}
	s := p.Steps[0]
	if s.Primary != nil || s.Axis != ast.AxisAttribute || len(s.Preds) != 0 ||
		!s.Test.IsName || s.Test.AnySpace || s.Test.Name.Local == "*" {
		return dom.QName{}, false
	}
	return s.Test.Name, true
}

// positionalBound statically bounds the input positions a predicate can
// accept: [N] and [position() < N] shapes never accept an item past the
// bound, letting predicate stages stop pulling. ok=false is unbounded.
func positionalBound(pred ast.Expr) (int64, bool) {
	switch x := pred.(type) {
	case ast.IntLit:
		if x.Val < 1 {
			return 0, true // [0]: no position matches
		}
		return x.Val, true
	case ast.Compare:
		if n, ok := intLitVal(x.R); ok && isPositionCall(x.L) {
			switch x.Op {
			case "<", "lt":
				return clampBound(n - 1), true
			case "<=", "le", "=", "eq":
				return clampBound(n), true
			}
		}
		if n, ok := intLitVal(x.L); ok && isPositionCall(x.R) {
			switch x.Op {
			case ">", "gt":
				return clampBound(n - 1), true
			case ">=", "ge", "=", "eq":
				return clampBound(n), true
			}
		}
	}
	return 0, false
}

func clampBound(n int64) int64 {
	if n < 0 {
		return 0
	}
	return n
}

func isPositionCall(e ast.Expr) bool {
	f, ok := e.(ast.FuncCall)
	return ok && len(f.Args) == 0 && f.Name.Local == "position" &&
		(f.Name.Space == fnSpace || f.Name.Space == "")
}

func intLitVal(e ast.Expr) (int64, bool) {
	l, ok := e.(ast.IntLit)
	return l.Val, ok
}
