package xquery

import (
	"errors"
	"fmt"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
)

// ErrNotShippable matches (via errors.Is) the refusal of an expression
// that may not be evaluated per document on a remote caller's behalf.
var ErrNotShippable = errors.New("xquery: not a per-document expression")

// EvalPerDocument is the receiving end of expression shipping
// (ast.ShipPlan): it evaluates src — an expression a remote planner
// wrote, not one the owner of the documents chose to run — once per
// item of docs, each a node that becomes the context item, and hands
// every document's values to emit in order. It is the evaluation that
// owns parent carried on: the documents share parent's one budget,
// cancellation and clock. What the caller may do is bounded here, not
// by what it sends:
//
//   - src is refused with ErrNotShippable, before anything of it runs,
//     unless it is an expression with no prolog beyond namespace
//     declarations that passes plan.Shippable — closed, effect-free,
//     every call on the planner's allowlist (so no fn:doc,
//     fn:collection or fn:put, which e, running the browser profile,
//     blocks a second time; no host function; no update);
//   - a node among the values is refused too: values travel, nodes
//     would arrive as detached copies, so a planner that ships a
//     node-valued expression fails loudly instead of answering wrong;
//   - index probes read what the documents' owner has built and build
//     nothing (runtime.Context.NoIndexBuild);
//   - src compiles once through c (bounded, shared by the process) on
//     e, and a program that keeps panicking is quarantined like any
//     other the cache runs (see EvalQuery).
//
// It is a panic-isolation boundary.
func (c *Cache) EvalPerDocument(e *Engine, src string, parent *runtime.Context, docs xdm.Sequence,
	emit func(doc *dom.Node, vals xdm.Sequence) error) (err error) {
	key := progKey{e.Fingerprint(), src}
	if err := c.checkQuarantine(key); err != nil {
		return err
	}
	defer func() { c.noteOutcome(key, err) }()
	defer xqerr.RecoverInto(&err, "xquery.EvalPerDocument")
	p, err := c.compilePerDocument(e, key)
	if err != nil {
		return err
	}
	// Nothing admitted updates (the evaluator would refuse them as well),
	// nothing builds an index, and the owner's resolvers, hooks and
	// ambient focus stay the owner's.
	ctx := parent.ContextFor(p.prog).Derive(func(r *runtime.Run) {
		r.PUL, r.NoIndexBuild = nil, true
		r.Docs, r.Collections, r.Hooks, r.Ambient = nil, nil, nil, nil
	})
	ctx.Pos, ctx.Size = 1, 1
	for _, it := range docs {
		doc, isNode := xdm.IsNode(it)
		if !isNode {
			return fmt.Errorf("%w: evaluated on documents, not on %s", ErrNotShippable, it.Type())
		}
		ctx.Item = it
		vals, err := ctx.RunBody()
		if err != nil {
			return err
		}
		if seqHasNodes(vals) {
			return fmt.Errorf("%w: it yields a node, and only atomic values travel", ErrNotShippable)
		}
		if err := emit(doc, vals); err != nil {
			return err
		}
	}
	return nil
}

// compilePerDocument is Compile behind the per-document admission
// check. The check runs before the compile, so a refused expression
// never enters the program cache (its parse is shared, like
// CompileStrict's), and once per cached program.
func (c *Cache) compilePerDocument(e *Engine, key progKey) (*Program, error) {
	c.mu.Lock()
	el, cached := c.programs.idx[key]
	admitted := cached && el.Value.(*item[progKey, *progEntry]).val.perDocument
	c.mu.Unlock()
	if !admitted {
		m, err := c.parse(key.src)
		if err != nil {
			return nil, err
		}
		// The parsed module is shared, and a concurrent compile may be
		// planning it: read it behind the planner's once, like every
		// reader.
		m.EnsurePlanned(func() { plan.Prepare(m) })
		if err := perDocumentPolicy(m); err != nil {
			return nil, err
		}
	}
	ent, err := c.entry(e, key)
	if err != nil {
		return nil, err
	}
	if !admitted {
		c.mu.Lock()
		ent.perDocument = true
		c.mu.Unlock()
	}
	return e.bindCached(ent.shared)
}

func perDocumentPolicy(m *ast.Module) error {
	pr := &m.Prolog
	switch {
	case m.IsLibrary || m.Body == nil:
		return fmt.Errorf("%w: a library module", ErrNotShippable)
	case len(pr.Vars)+len(pr.Functions)+len(pr.Imports)+len(pr.Options) > 0,
		pr.DefaultElemNS != "", pr.DefaultFnNS != "":
		return fmt.Errorf("%w: its prolog declares more than namespaces", ErrNotShippable)
	case !plan.Shippable(m.Body):
		return fmt.Errorf("%w: outside the shipped language "+
			"(updates, constructors, free variables, calls off the planner's allowlist)", ErrNotShippable)
	}
	return nil
}
