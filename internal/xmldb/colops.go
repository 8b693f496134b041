package xmldb

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xmldb/wal"
	"repro/internal/xquery/runtime"
)

// Collection operations: the hierarchy itself (create/remove/list) and
// the scans over it. Scans read every shard's cached snapshot of the
// collection (shard.colSnapshot) and merge the per-shard sorted slices,
// so the result is URI-ordered and each shard's part is a point-in-time
// view that later commits cannot disturb.

// CreateCollection creates a hierarchical collection (and any missing
// ancestors), durably. Creating an existing collection is a no-op.
func (s *Store) CreateCollection(p string) error {
	col := normCollection(p)
	return s.commit(wal.MkCol, col, nil,
		func() error {
			if s.cols.exists(col) {
				return errNoop
			}
			return nil
		},
		func() { s.cols.create(col) })
}

// RemoveCollection removes a hierarchical collection, its
// sub-collections and every document in them, durably. The root
// collection cannot be removed; removing an absent collection returns
// ErrNoCollection.
func (s *Store) RemoveCollection(p string) error {
	col := normCollection(p)
	if col == "/" {
		return fmt.Errorf("xmldb: cannot remove the root collection")
	}
	return s.commit(wal.RmCol, col, nil,
		func() error {
			if !s.cols.exists(col) {
				return fmt.Errorf("%w: %s", ErrNoCollection, col)
			}
			return nil
		},
		func() { s.applyRmCol(col) })
}

// Collections returns every collection path, sorted. The root "/" is
// always present.
func (s *Store) Collections() []string { return s.cols.list() }

// colEntries returns every shard's cached snapshot of a hierarchical
// collection, sorted slices ready for merging, or ErrNoCollection.
func (s *Store) colEntries(p string) ([][]docEntry, error) {
	col := normCollection(p)
	if !s.cols.exists(col) {
		return nil, fmt.Errorf("%w: %s", ErrNoCollection, col)
	}
	s.Stats.scans.Add(1)
	parts := make([][]docEntry, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.colSnapshot(col)
	}
	return parts, nil
}

// Collection returns the documents of a hierarchical collection (its
// sub-collections included), URI-ordered.
func (s *Store) Collection(p string) ([]*dom.Node, error) {
	parts, err := s.colEntries(p)
	if err != nil {
		return nil, err
	}
	entries := mergeEntries(parts)
	docs := make([]*dom.Node, len(entries))
	for i, e := range entries {
		docs[i] = e.rev.root
	}
	return docs, nil
}

// CollectionIter streams the documents of a hierarchical collection in
// URI order as an XDM sequence: the shards are snapshotted up front (a
// consistent view), but the k-way merge advances one document per Next,
// so an early-exiting consumer (collection($c)[1]) pays for one merge
// step, not a materialised result.
func (s *Store) CollectionIter(p string) (xdm.Iter, error) {
	parts, err := s.colEntries(p)
	if err != nil {
		return nil, err
	}
	m := newMerger(parts)
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		e, ok := m.next()
		if !ok {
			return nil, false, nil
		}
		return xdm.NewNode(e.rev.root), true, nil
	}), nil
}

// ScanCollection runs fn over every document of a hierarchical
// collection with one goroutine per shard — the parallel scan the
// sharding exists for. fn must be safe for concurrent calls; within a
// shard it sees URI order, across shards order is interleaved. The
// first error stops the reporting scan (others run to completion).
func (s *Store) ScanCollection(p string, fn func(uri string, doc *dom.Node) error) error {
	col := normCollection(p)
	if !s.cols.exists(col) {
		return fmt.Errorf("%w: %s", ErrNoCollection, col)
	}
	s.Stats.scans.Add(1)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			for _, e := range sh.colSnapshot(col) {
				if err := fn(e.uri, e.rev.root); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	return firstErr
}

// CollectionSource is the store as the engine's fn:collection source.
// Three URI shapes dispatch three ways: the empty URI (the default
// collection) yields every document; a "/"-prefixed URI names a
// hierarchical collection (ErrNoCollection if absent), streamed as the
// incremental shard merge; anything else is the legacy prefix match
// over raw URIs (collection("articles/")), which yields empty — not an
// error — for an unknown prefix, as the pre-hierarchy store did.
func (s *Store) CollectionSource() runtime.CollectionSource { return collectionSource{s} }

// collectionSource is a Store as a runtime.CollectionSource.
type collectionSource struct{ s *Store }

func (c collectionSource) Documents(uri string) (xdm.Iter, error) {
	switch {
	case uri == "":
		return c.s.CollectionIter("/")
	case strings.HasPrefix(uri, "/"):
		return c.s.CollectionIter(uri)
	}
	c.s.Stats.scans.Add(1)
	entries := mergeEntries(scanShards(c.s.shards, func(u string, _ *docRev) bool {
		return strings.HasPrefix(u, uri)
	}))
	seq := make(xdm.Sequence, len(entries))
	for i, e := range entries {
		seq[i] = xdm.NewNode(e.rev.root)
	}
	return xdm.FromSlice(seq), nil
}

// CollectionResolver is CollectionSource materialised, for the field
// that takes a document list (rest.ModuleServer.Collections).
func (s *Store) CollectionResolver() runtime.CollectionResolver {
	return func(uri string) ([]*dom.Node, error) {
		it, err := s.CollectionSource().Documents(uri)
		if err != nil {
			return nil, err
		}
		seq, err := xdm.Materialize(it)
		if err != nil {
			return nil, err
		}
		docs := make([]*dom.Node, len(seq))
		for i, item := range seq {
			docs[i], _ = xdm.IsNode(item)
		}
		return docs, nil
	}
}

// CollectionIterResolver is CollectionSource under the name the
// benchmark harness calls; it goes with the harness's next change.
func (s *Store) CollectionIterResolver() runtime.CollectionSource { return s.CollectionSource() }
