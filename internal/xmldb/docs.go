package xmldb

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xmldb/wal"
	"repro/internal/xquery/runtime"
)

// Document operations. Writes go through the commit protocol (redo
// record first, then the in-memory publish); reads go straight to the
// shards and see the last committed revision without locking writers.

// PutDoc stores (or replaces) a document under a URI, durably. A
// hierarchical URI ("/db/...") requires its collection to exist
// (ErrNoCollection otherwise — create it first, eXist-style); flat
// legacy URIs land in the root collection.
func (s *Store) PutDoc(uri string, doc *dom.Node) error {
	doc.SetBaseURI(uri)
	col := collectionOf(uri)
	data := markup.AppendXML(nil, doc)
	err := s.commit(wal.Put, uri, data,
		func() error {
			if !s.cols.exists(col) {
				return fmt.Errorf("%w: %s (store %q first requires CreateCollection)", ErrNoCollection, col, uri)
			}
			return nil
		},
		func() { s.shardFor(uri).publish(uri, doc) })
	if err != nil {
		return err
	}
	s.Stats.puts.Add(1)
	return nil
}

// PutXML parses and stores a document.
func (s *Store) PutXML(uri, src string) error {
	doc, err := markup.Parse(src)
	if err != nil {
		return fmt.Errorf("xmldb: %s: %w", uri, err)
	}
	return s.PutDoc(uri, doc)
}

// Get returns the current revision of the document stored under a URI.
func (s *Store) Get(uri string) (*dom.Node, bool) {
	s.Stats.gets.Add(1)
	d, ok := s.shardFor(uri).get(uri)
	if !ok {
		return nil, false
	}
	return d.root, true
}

// Doc returns the document stored under a URI, or ErrDocNotFound.
func (s *Store) Doc(uri string) (*dom.Node, error) {
	if d, ok := s.Get(uri); ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrDocNotFound, uri)
}

// Remove deletes a document, durably. Removing a URI with no document
// returns ErrDocNotFound.
func (s *Store) Remove(uri string) error {
	err := s.commit(wal.Delete, uri, nil,
		func() error {
			if _, ok := s.shardFor(uri).get(uri); !ok {
				return fmt.Errorf("%w: %q", ErrDocNotFound, uri)
			}
			return nil
		},
		func() { s.shardFor(uri).remove(uri) })
	if err != nil {
		return err
	}
	s.Stats.deletes.Add(1)
	return nil
}

// List returns every stored URI, sorted: every shard is walked
// and their sorted slices merge.
func (s *Store) List() []string {
	entries := mergeEntries(scanShards(s.shards, nil))
	uris := make([]string, len(entries))
	for i, e := range entries {
		uris[i] = e.uri
	}
	return uris
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.count()
	}
	return n
}

// Resolver exposes the store as an fn:doc resolver (server-side XQuery
// runs doc("articles/a1.xml") directly against the database).
func (s *Store) Resolver() runtime.DocResolver {
	return func(uri string) (*dom.Node, error) {
		return s.Doc(uri)
	}
}
