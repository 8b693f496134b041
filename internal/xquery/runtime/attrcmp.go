package runtime

import (
	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// This file is the native kernel for the predicate shape the planner
// classifies as ast.PredAttrCmp — [@a = K] and [@a eq K] with K
// step-invariant, so one read per step evaluation is as good as one per
// candidate. It is sound because it only ever decides when K is one or
// more xs:string/xs:untypedAtomic atoms (exactly one for eq): against
// such a key both comparison families are plain string equality with
// the attribute's value, which never raises and never reads the focus
// position. For every other key, and every candidate it cannot decide,
// the stage evaluates the predicate (predIter.holds), which stays the
// only definition of predicate semantics. Context.NoIndex — "ignore the
// planner's access annotations", the differential tests' oracle —
// switches the kernel off with the index probes.

// attrKey is one attribute-comparison predicate's key for one step
// evaluation, held in the predicate's stage and shared by all the
// step's focus nodes: unread until a candidate reaches the stage (or,
// for an id probe, until the probe needs it), then either K's atoms
// (the kernel compares) or nil (anything but strings: the predicate is
// evaluated).
type attrKey struct {
	vals []string
	one  [1]string // vals of a one-string key, which costs no allocation
	read bool
}

// load evaluates K — step-invariant, so the outer focus ctx carries is
// as good as any candidate's — and decides who compares.
// An evaluation error leaves the decision to the evaluated predicate,
// which raises it the way it always did.
func (k *attrKey) load(ctx *Context, pp *ast.PredPlan) {
	k.read = true
	seq, err := ctx.Eval(pp.Key)
	if err != nil || len(seq) == 0 || (pp.Value && len(seq) != 1) {
		return
	}
	vals := k.one[:]
	if len(seq) > 1 {
		vals = make([]string, len(seq))
	}
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
// first predicate's key, read through the predicate's stage, when that
// is exactly one non-empty string (the id map does not record empty
// ids). ok is false for any other value — (), two items, a number, an
// error — and when the step's first predicate is not an attribute
// comparison or it has none (p is nil).
func (p *predIter) id() (id string, ok bool) {
	if p == nil || p.plan().Kind != ast.PredAttrCmp {
		return "", false
	}
	k, pp := &p.key, p.plan()
	if !k.read {
		k.load(p.ctx, pp)
	}
	if len(k.vals) != 1 || k.vals[0] == "" {
		return "", false
	}
	return k.vals[0], true
}

// matches reports whether n passes the predicate, allocating nothing.
// ok is false when the kernel cannot say: an eq whose attribute step
// selects two nodes (two attributes of one expanded name, which only a
// rename can produce) is a type error, and raising it is the evaluated
// predicate's business.
func (k *attrKey) matches(n *dom.Node, pp *ast.PredPlan) (keep, ok bool) {
	if n.Type != dom.ElementNode {
		return false, true
	}
	seen := 0
	for _, at := range n.Attrs() {
		if !at.Name.Matches(pp.Attr) {
			continue
		}
		if seen++; seen > 1 && pp.Value {
			return false, false
		}
		for _, v := range k.vals {
			keep = keep || at.Data == v
		}
	}
	return keep, true
}
