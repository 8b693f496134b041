package runtime

import (
	"fmt"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// CollectionShipper is the shipping capability of a CollectionSource.
// Instead of the documents of fn:collection(uri) Ship answers what the
// per-document expression src (ast.ShipPlan.Src) yields on them: the
// holder of the documents evaluates src with each document as the
// context item and vals is the concatenation of the values in
// collection order. unevaluated holds whatever items of the collection
// the source could not have src evaluated on (the fed:incomplete
// element of a degraded federated gather); the evaluator runs the
// expression on those itself. ok is false when the source cannot ship
// at the moment — the node is then evaluated the ordinary way, over the
// source's documents.
type CollectionShipper interface {
	Ship(uri, src string) (vals, unevaluated xdm.Sequence, ok bool, err error)
}

// EvalShipped answers a node the planner annotated with p through the
// run's collection source. ok is false when the node has to be
// evaluated the ordinary way: the run's source cannot ship or the run
// has the planner's annotations switched off (NoIndex), fn:collection
// is blocked anyway, or the source cannot ship right now. Evaluators
// call it for annotated nodes only; a node without a plan costs them a
// nil check.
func (ctx *Context) EvalShipped(p *ast.ShipPlan) (val xdm.Sequence, ok bool, err error) {
	shipper, canShip := ctx.Collections.(CollectionShipper)
	if !canShip || ctx.NoIndex || ctx.Prog.BlockDoc {
		return nil, false, nil
	}
	vals, unevaluated, ok, err := shipper.Ship(p.URI, p.Src)
	if err != nil {
		return nil, true, fmt.Errorf("fn:collection(%q): %w", p.URI, err)
	}
	if !ok {
		return nil, false, nil
	}
	if ctx.Profiler != nil {
		ctx.Profiler.Add("fed:shipped", 1)
	}
	var fc *Context // one focus frame, set per document
	for _, it := range unevaluated {
		if fc == nil {
			fc = ctx.withFocus(it, 1, 1)
		} else {
			fc.Item = it
		}
		more, err := fc.Eval(p.Expr)
		if err != nil {
			return nil, true, err
		}
		vals = append(vals, more...)
	}
	if !p.Sum {
		return vals, true, nil
	}
	var total xdm.Integer
	for _, v := range vals {
		n, isInt := v.(xdm.Integer)
		if !isInt {
			return nil, true, fmt.Errorf("fn:collection(%q): a per-document count came back as %s", p.URI, v.Type())
		}
		total += n
	}
	return xdm.Singleton(total), true, nil
}
