// Package update implements the XQuery Update Facility's pending update
// lists. Updating expressions do not mutate nodes when they evaluate;
// they accumulate update primitives which are checked for compatibility,
// merged, and applied in the order the candidate recommendation
// prescribes — "all modifications are performed once the expression is
// entirely evaluated: there are no side effects until the end" (paper
// §3.2). The Scripting Extension then makes snapshots smaller: the host
// applies the list after every statement instead of once per query.
package update

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
)

// Kind identifies an update primitive.
type Kind int

// Update primitives, in declaration order (not application order).
const (
	InsertInto Kind = iota + 1
	InsertIntoFirst
	InsertIntoLast
	InsertBefore
	InsertAfter
	InsertAttributes
	Delete
	ReplaceNode
	ReplaceValue
	Rename
)

// String names the primitive kind.
func (k Kind) String() string {
	return [...]string{"", "insertInto", "insertIntoFirst", "insertIntoLast",
		"insertBefore", "insertAfter", "insertAttributes", "delete",
		"replaceNode", "replaceValue", "rename"}[k]
}

// Primitive is one pending update.
type Primitive struct {
	Kind   Kind
	Target *dom.Node
	// Content is the inserted/replacement nodes: detached trees nothing
	// else references — copies, or fresh constructions the evaluator
	// adopted as they were (ast.Insert.Adopt). Apply attaches them
	// without copying again.
	Content []*dom.Node
	Value   string    // ReplaceValue
	Name    dom.QName // Rename
}

// PUL is a pending update list.
type PUL struct {
	prims []Primitive
	// exclusive holds the (target, kind) of every pending rename,
	// replaceNode and replaceValue — the kinds of which one target
	// takes at most one — made on the first of them.
	exclusive map[exclusiveKey]struct{}
}

type exclusiveKey struct {
	target *dom.Node
	kind   Kind
}

// Empty reports whether no updates are pending.
func (p *PUL) Empty() bool { return len(p.prims) == 0 }

// Len returns the number of pending primitives.
func (p *PUL) Len() int { return len(p.prims) }

// Primitives returns the pending primitives (callers must not mutate).
func (p *PUL) Primitives() []Primitive { return p.prims }

// ErrNilTarget reports a primitive that names no target node. Add is
// the single validation point: Merge routes through Add, so a nil
// target can never enter a list from either path (it used to slip
// through and only fail — with a panic — deep inside apply).
var ErrNilTarget = errors.New("update: primitive has no target node")

// Add appends a primitive, enforcing the Update Facility's
// compatibility rules: at most one rename, one replaceNode and one
// replaceValue per target node. Primitives without a target are
// rejected with an error matching ErrNilTarget.
func (p *PUL) Add(pr Primitive) error {
	if pr.Target == nil {
		return fmt.Errorf("%w (%s)", ErrNilTarget, pr.Kind)
	}
	if pr.Kind == Rename || pr.Kind == ReplaceNode || pr.Kind == ReplaceValue {
		k := exclusiveKey{pr.Target, pr.Kind}
		if _, dup := p.exclusive[k]; dup {
			return fmt.Errorf("update: incompatible updates: two %s operations target the same node", pr.Kind)
		}
		if p.exclusive == nil {
			p.exclusive = make(map[exclusiveKey]struct{})
		}
		p.exclusive[k] = struct{}{}
	}
	p.prims = append(p.prims, pr)
	return nil
}

// Merge appends all primitives of q, enforcing compatibility.
func (p *PUL) Merge(q *PUL) error {
	for _, pr := range q.prims {
		if err := p.Add(pr); err != nil {
			return err
		}
	}
	return nil
}

// Reset drops all pending updates.
func (p *PUL) Reset() {
	p.prims = p.prims[:0]
	clear(p.exclusive)
}

// TargetsWithin verifies every primitive targets a node whose root is
// one of the given roots — the "transform" expression's requirement that
// modify clauses only touch copied trees.
func (p *PUL) TargetsWithin(roots []*dom.Node) error {
	in := func(n *dom.Node) bool {
		r := n.Root()
		for _, x := range roots {
			if r == x {
				return true
			}
		}
		return false
	}
	for _, pr := range p.prims {
		if !in(pr.Target) {
			return fmt.Errorf("update: %s targets a node outside the copied trees", pr.Kind)
		}
	}
	return nil
}

// phaseOf is the Update Facility's application order: a primitive's
// phase by kind. Phases apply in ascending order, list order within a
// phase; noPhase (no kind, or one this table does not know) sorts last,
// where applyOne rejects it.
var phaseOf = [...]uint8{
	0:          noPhase,
	InsertInto: 0, InsertAttributes: 0, ReplaceValue: 0, Rename: 0,
	InsertBefore: 1, InsertAfter: 1, InsertIntoFirst: 1, InsertIntoLast: 1,
	ReplaceNode: 2,
	Delete:      3,
}

const noPhase = 4

func phase(k Kind) uint8 {
	if uint(k) < uint(len(phaseOf)) {
		return phaseOf[k]
	}
	return noPhase
}

// rollbacks counts PUL applications that failed mid-way and were
// rolled back, process-wide (surfaced in serve.Metrics.Failures).
var rollbacks atomic.Int64

// Rollbacks returns the process-wide rollback count.
func Rollbacks() int64 { return rollbacks.Load() }

// Apply performs all pending updates against the live trees in the
// prescribed order and clears the list — atomically: every primitive
// records its exact inverse in an undo log, and if any primitive fails
// mid-apply the log unwinds in reverse, each touched tree's version
// counter is rewound to its pre-apply value (re-stamping document
// order and dropping any index built in the rolled-back window, once
// per tree), and the original error returns with the documents
// serialisation-identical to their pre-apply state and the list intact.
// That makes the Update Facility's all-or-nothing contract hold against
// the live DOM, not just the evaluation snapshot.
//
// If onChange is non-nil it is called once per applied primitive (the
// plug-in host uses this to count DOM mutations and schedule
// re-rendering) — but only after the whole list has applied, so
// observers never see a primitive that is later rolled back.
//
// Apply is the reference: ApplyPruned (prune.go) is what the hosts
// call, and the fuzz target compares the two.
func (p *PUL) Apply(onChange func(Primitive)) error {
	if err := applyAtomic(p.prims, onChange); err != nil {
		return err
	}
	p.Reset()
	return nil
}

// applyAtomic applies prims all-or-nothing and then reports them, in
// application order, to onChange.
func applyAtomic(prims []Primitive, onChange func(Primitive)) error {
	versions := snapshotVersions(prims)
	ordered := orderedPrims(prims)
	u := undoLog{steps: make([]func() error, 0, len(ordered))}
	for i := range ordered {
		err := faultpoint.Hit(faultpoint.PointUpdateApply)
		if err == nil {
			err = applyOne(ordered[i], &u)
		}
		if err != nil {
			rollbacks.Add(1)
			return rollback(err, &u, versions)
		}
	}
	if onChange != nil {
		for _, pr := range ordered {
			onChange(pr)
		}
	}
	return nil
}

// orderedPrims returns the primitives in the Update Facility's
// application order — phase by phase, original list order within a
// phase — in one stable counting pass.
func orderedPrims(prims []Primitive) []Primitive {
	var next [noPhase + 1]int
	for i := range prims {
		next[phase(prims[i].Kind)]++
	}
	at := 0
	for ph, n := range next {
		next[ph] = at
		at += n
	}
	out := make([]Primitive, len(prims))
	for i := range prims {
		ph := phase(prims[i].Kind)
		out[next[ph]] = prims[i]
		next[ph]++
	}
	return out
}

// treeVersions records each target tree's version counter before the
// first mutation. Content trees need no entry: nothing caches on a tree
// that was copied or constructed a moment ago and that no expression
// has been evaluated against, and inserts bump the target tree. A list
// nearly always targets one tree, which is held inline; the map exists
// only once a second tree shows up.
type treeVersions struct {
	root    *dom.Node
	version uint64
	more    map[*dom.Node]uint64
}

func snapshotVersions(prims []Primitive) treeVersions {
	var tv treeVersions
	for i := range prims {
		r := prims[i].Target.Root()
		if r == tv.root {
			continue
		}
		if tv.root == nil {
			tv.root, tv.version = r, r.Version()
			continue
		}
		if _, ok := tv.more[r]; !ok {
			if tv.more == nil {
				tv.more = map[*dom.Node]uint64{}
			}
			tv.more[r] = r.Version()
		}
	}
	return tv
}

// restore rewinds the trees a failed apply touched; it failed on some
// primitive, so there is a first tree.
func (tv treeVersions) restore() {
	rewind := func(root *dom.Node, v uint64) {
		if root.Version() != v {
			root.RestoreVersion(v)
		}
	}
	rewind(tv.root, tv.version)
	for root, v := range tv.more {
		rewind(root, v)
	}
}

// rollback unwinds a failed apply: the undo log runs in strict reverse,
// every touched tree's version counter is rewound, and the original
// error returns — joined with an undo failure if the rollback itself
// broke.
func rollback(err error, u *undoLog, versions treeVersions) error {
	undoErr := u.undo()
	versions.restore()
	if undoErr != nil {
		return errors.Join(err, fmt.Errorf("update: rollback failed: %w", undoErr))
	}
	return err
}

// undoLog records, during an apply, the exact inverse of every
// mutation in application order. Inverses are positional
// (RestoreChildAt/RestoreAttrAt) rather than sibling-relative: by the
// time the log unwinds, the sibling that anchored an operation may
// itself be detached, but unwinding in strict reverse order means each
// inverse runs against exactly the state its operation produced, so a
// captured list index is always valid.
type undoLog struct {
	steps []func() error
}

func (u *undoLog) add(f func() error) {
	u.steps = append(u.steps, f)
}

func (u *undoLog) undo() error {
	var errs []error
	for i := len(u.steps) - 1; i >= 0; i-- {
		if err := u.steps[i](); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func applyOne(pr Primitive, u *undoLog) error {
	t := pr.Target
	switch pr.Kind {
	case InsertInto, InsertIntoLast:
		for _, c := range pr.Content {
			if err := insertChildOrAttr(t, c, u, func(n *dom.Node) error { return t.AppendChild(n) }); err != nil {
				return err
			}
		}
	case InsertIntoFirst:
		// Preserve content order while prepending.
		for i := len(pr.Content) - 1; i >= 0; i-- {
			c := pr.Content[i]
			if err := insertChildOrAttr(t, c, u, func(n *dom.Node) error { return t.PrependChild(n) }); err != nil {
				return err
			}
		}
	case InsertBefore:
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: insert before a parentless node")
		}
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertBefore(c, t) }); err != nil {
				return err
			}
		}
	case InsertAfter:
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: insert after a parentless node")
		}
		ref := t
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertAfter(c, ref) }); err != nil {
				return err
			}
			ref = c
		}
	case InsertAttributes:
		for _, a := range pr.Content {
			if a.Type != dom.AttributeNode {
				return fmt.Errorf("update: insertAttributes content must be attributes")
			}
			setAttr(t, a.Name, a.Data, u)
		}
	case Delete:
		detach(t, u)
	case ReplaceNode:
		if t.Type == dom.AttributeNode {
			owner := t.Parent()
			if owner == nil {
				return fmt.Errorf("update: replace a detached attribute")
			}
			detach(t, u)
			for _, c := range pr.Content {
				if c.Type != dom.AttributeNode {
					return fmt.Errorf("update: attribute can only be replaced by attributes")
				}
				setAttr(owner, c.Name, c.Data, u)
			}
			return nil
		}
		parent := t.Parent()
		if parent == nil {
			return fmt.Errorf("update: replace a parentless node")
		}
		ref := t
		for _, c := range pr.Content {
			if err := insertChild(c, u, func() error { return parent.InsertAfter(c, ref) }); err != nil {
				return err
			}
			ref = c
		}
		detach(t, u)
	case ReplaceValue:
		switch t.Type {
		case dom.ElementNode:
			old := append([]*dom.Node(nil), t.Children()...)
			t.ReplaceElementContent(pr.Value)
			u.add(func() error {
				t.RemoveChildren()
				var errs []error
				for _, c := range old {
					if err := t.AppendChild(c); err != nil {
						errs = append(errs, err)
					}
				}
				return errors.Join(errs...)
			})
		case dom.DocumentNode:
			return fmt.Errorf("update: cannot replace value of a document node")
		default:
			old := t.Data
			t.SetData(pr.Value)
			u.add(func() error { t.SetData(old); return nil })
		}
	case Rename:
		switch t.Type {
		case dom.ElementNode, dom.AttributeNode, dom.ProcessingInstructionNode:
			// A duplicate attribute name (XUDY0021) must fail here, not
			// slip into the tree: the transient duplicate state would
			// poison a later rollback (RestoreAttrAt rightly refuses to
			// recreate it).
			if t.Type == dom.AttributeNode {
				if owner := t.Parent(); owner != nil {
					if ex := owner.AttrNode(pr.Name); ex != nil && ex != t {
						return fmt.Errorf("update: rename would create a duplicate attribute %s", pr.Name.Local)
					}
				}
			}
			old := t.Name
			t.Rename(pr.Name)
			u.add(func() error { t.Rename(old); return nil })
		default:
			return fmt.Errorf("update: cannot rename a %s node", t.Type)
		}
	default:
		return fmt.Errorf("update: unknown primitive %d", pr.Kind)
	}
	return nil
}

// insertChild runs one child insertion and records its inverse (the
// content node was detached before insertion, so detaching again is
// exact).
func insertChild(c *dom.Node, u *undoLog, insert func() error) error {
	if err := insert(); err != nil {
		return err
	}
	u.add(func() error { c.Detach(); return nil })
	return nil
}

// setAttr sets (or adds) an attribute and records its inverse: restore
// the previous value on the same attribute node, or detach the node
// SetAttr created.
func setAttr(t *dom.Node, name dom.QName, value string, u *undoLog) {
	if a := t.AttrNode(name); a != nil {
		old := a.Data
		a.SetData(value)
		u.add(func() error { a.SetData(old); return nil })
		return
	}
	a := t.SetAttr(name, value)
	u.add(func() error { a.Detach(); return nil })
}

// detach removes t from its parent and records a positional inverse so
// the undo restores the exact child/attribute list order. Detaching a
// parentless node records nothing (Detach itself is a no-op there).
func detach(t *dom.Node, u *undoLog) {
	p := t.Parent()
	if p == nil {
		return
	}
	if t.Type == dom.AttributeNode {
		i := nodeIndex(p.Attrs(), t)
		t.Detach()
		u.add(func() error { return p.RestoreAttrAt(t, i) })
		return
	}
	i := nodeIndex(p.Children(), t)
	t.Detach()
	u.add(func() error { return p.RestoreChildAt(t, i) })
}

func nodeIndex(list []*dom.Node, t *dom.Node) int {
	for i, x := range list {
		if x == t {
			return i
		}
	}
	return -1
}

// insertChildOrAttr routes attribute nodes in an insert-into content
// list to the attribute list and everything else through insert.
func insertChildOrAttr(target, c *dom.Node, u *undoLog, insert func(*dom.Node) error) error {
	if c.Type == dom.AttributeNode {
		if target.Type != dom.ElementNode {
			return fmt.Errorf("update: attributes can only be inserted into elements")
		}
		setAttr(target, c.Name, c.Data, u)
		return nil
	}
	return insertChild(c, u, func() error { return insert(c) })
}
