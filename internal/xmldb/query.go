package xmldb

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xmldb/wal"
	"repro/internal/xquery"
	"repro/internal/xquery/ast"
)

// Query evaluation against stored documents, with the MVCC split:
// queries whose effect summary proves them reads run directly on the
// published immutable revision (no copy, no lock); anything that could
// mutate the context document runs on a private clone that commits as
// the next revision — or loses a first-committer-wins race with
// ErrConflict.

// mutating is the store's column of the planner's effect summary
// (ast.Module.Effects): an update, fn:put, an event or style statement,
// a call of a sequential function, or a call nobody in the module can
// answer for (a host, imported, external or undeclared function). A
// false positive only costs a clone; a false negative would let a query
// scribble on a published revision, which is why the opaque call counts.
const mutating = ast.EffUpdates | ast.EffWrites | ast.EffActsAtOnce |
	ast.EffSequentialCall | ast.EffOpaqueCall

// run evaluates a compiled program with doc as the context item and the
// store as doc/collection resolver.
func (s *Store) run(prog *xquery.Program, doc *dom.Node) (string, error) {
	res, err := prog.Run(xquery.RunConfig{
		ContextItem: xdm.NewNode(doc),
		Docs:        s.Resolver(),
		Collections: s.CollectionSource(),
	})
	if err != nil {
		return "", err
	}
	s.Stats.queriesEvaluated.Add(1)
	return xquery.FormatSequence(res.Value, markup.AppendXML), nil
}

// Query evaluates an XQuery expression with the stored document as the
// context item. Pure queries read the current revision in place;
// updating queries are routed through Update's clone-and-commit
// protocol, so a query can never scribble on a published revision.
func (s *Store) Query(uri, query string) (string, error) {
	rev, ok := s.shardFor(uri).get(uri)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, uri)
	}
	prog, err := s.engine.Compile(query)
	if err != nil {
		return "", err
	}
	if prog.Module().Effects&mutating != 0 { // the engine's compile recorded the summary
		return s.update(uri, rev, prog)
	}
	return s.run(prog, rev.root)
}

// Update evaluates an updating XQuery expression against a stored
// document under the MVCC protocol, regardless of what the static
// detector thinks of it.
func (s *Store) Update(uri, query string) (string, error) {
	rev, ok := s.shardFor(uri).get(uri)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, uri)
	}
	prog, err := s.engine.Compile(query)
	if err != nil {
		return "", err
	}
	return s.update(uri, rev, prog)
}

// update is the optimistic write path: clone the revision the caller
// saw, run the query against the clone, then commit the clone as the
// next revision — unless another committer got there first, in which
// case the work is discarded and the caller gets ErrConflict to retry
// against the newer revision.
func (s *Store) update(uri string, base *docRev, prog *xquery.Program) (string, error) {
	clone := base.root.Clone()
	out, err := s.run(prog, clone)
	if err != nil {
		return "", err
	}
	data := markup.AppendXML(nil, clone)
	err = s.commit(wal.Put, uri, data,
		func() error {
			cur, ok := s.shardFor(uri).get(uri)
			if !ok || cur != base {
				s.Stats.conflicts.Add(1)
				return fmt.Errorf("%w: %q changed underfoot", ErrConflict, uri)
			}
			return nil
		},
		func() { s.shardFor(uri).publish(uri, clone) })
	if err != nil {
		return "", err
	}
	return out, nil
}
