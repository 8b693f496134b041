package runtime

import (
	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file is the native kernel for the predicate shape the planner
// classifies as ast.PredAttrCmp — [@a = K] and [@a eq K] with K
// step-invariant, so one read per step evaluation is as good as one per
// candidate. It is sound because it only ever runs when K is one or
// more xs:string/xs:untypedAtomic atoms (exactly one for eq): against
// such a key both comparison families are plain string equality with
// the attribute's value, which never raises and never reads the focus
// position. For every other key the stage hands its stream, untouched,
// to the generic predIter, which stays the only definition of predicate
// semantics. Context.NoIndex — "ignore the planner's access
// annotations", the differential tests' oracle — switches the kernel
// off with the index probes.

// stepKeys are the key slots of one evaluation of a step, index-aligned
// with its predicates and shared by all its focus nodes: K is evaluated
// at the first candidate that reaches the predicate's stage (or, for an
// id probe, when the probe needs it) and not again. nil means no
// predicate of the step runs natively.
type stepKeys []attrKey

// attrKey is one attribute-comparison predicate's key for one step
// evaluation: unread until a candidate reaches the stage, then either
// K's atoms (the kernel compares) or nil (anything but strings: the
// generic stage decides).
type attrKey struct {
	read bool
	vals []string
}

// newStepKeys returns the key slots for one evaluation of step, or nil
// when none of its predicates may run natively.
func (ctx *Context) newStepKeys(step *ast.Step) stepKeys {
	if ctx.NoIndex {
		return nil
	}
	for i := range step.PredPlans {
		if step.PredPlans[i].Kind == ast.PredAttrCmp {
			return make(stepKeys, len(step.Preds))
		}
	}
	return nil
}

// load evaluates K — step-invariant, so the outer focus ctx carries is
// as good as any candidate's — and decides who compares.
// An evaluation error leaves the decision to the generic stage, which
// raises it the way it always did.
func (k *attrKey) load(ctx *Context, pp *ast.PredPlan) {
	k.read = true
	seq, err := ctx.Eval(pp.Key)
	if err != nil || len(seq) == 0 || (pp.Value && len(seq) != 1) {
		return
	}
	vals := make([]string, len(seq))
	for i, it := range seq {
		switch a := xdm.Atomize(it).(type) {
		case xdm.String:
			vals[i] = string(a)
		case xdm.UntypedAtomic:
			vals[i] = string(a)
		default:
			return
		}
	}
	k.vals = vals
}

// id returns the id an AccessIndexID step probes for: the value of its
// first predicate's key, read through the predicate's slot, when that
// is exactly one non-empty string (the id map does not record empty
// ids). ok is false for any other value — (), two items, a number, an
// error — and when the step has no slots.
func (keys stepKeys) id(ctx *Context, step *ast.Step) (id string, ok bool) {
	if len(keys) == 0 {
		return "", false
	}
	k := &keys[0]
	if !k.read {
		k.load(ctx, &step.PredPlans[0])
	}
	if len(k.vals) != 1 || k.vals[0] == "" {
		return "", false
	}
	return k.vals[0], true
}

// attrCmpIter is the stage of an attribute-comparison predicate: it
// keeps the candidates that are elements with an attribute named
// plan.Attr whose value is one of the key's strings, allocating nothing
// per candidate.
type attrCmpIter struct {
	ctx     *Context
	in      xdm.Iter
	pred    ast.Expr
	plan    *ast.PredPlan
	key     *attrKey
	generic xdm.Iter // set once the stream has been handed over
}

func (a *attrCmpIter) Next() (xdm.Item, bool, error) {
	if a.generic != nil {
		return a.generic.Next()
	}
	for {
		item, ok, err := a.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if !a.key.read {
			a.key.load(a.ctx, a.plan)
		}
		n, isNode := xdm.IsNode(item)
		if a.key.vals == nil || !isNode {
			return a.handOver(item)
		}
		keep, ok := a.matches(n)
		if !ok {
			return a.handOver(item)
		}
		if keep {
			return item, true, nil
		}
	}
}

// matches reports whether n passes the predicate. ok is false when the
// kernel cannot say: an eq whose attribute step selects two nodes (two
// attributes of one expanded name, which only a rename can produce) is
// a type error, and raising it is the generic stage's business.
func (a *attrCmpIter) matches(n *dom.Node) (keep, ok bool) {
	if n.Type != dom.ElementNode {
		return false, true
	}
	seen := 0
	for _, at := range n.Attrs() {
		if !at.Name.Matches(a.plan.Attr) {
			continue
		}
		if seen++; seen > 1 && a.plan.Value {
			return false, false
		}
		for _, v := range a.key.vals {
			keep = keep || at.Data == v
		}
	}
	return keep, true
}

// handOver gives the rest of the stream, first included, to the generic
// stage. Restarting its position count mid-stream is harmless: an
// attribute comparison never reads the position.
func (a *attrCmpIter) handOver(first xdm.Item) (xdm.Item, bool, error) {
	rest, pending := a.in, true
	a.generic = &predIter{ctx: a.ctx, pred: a.pred, in: xdm.IterFunc(func() (xdm.Item, bool, error) {
		if pending {
			pending = false
			return first, true, nil
		}
		return rest.Next()
	})}
	return a.generic.Next()
}
