package xmldb

import (
	"path"
	"sort"
	"strings"
	"sync"
)

// Hierarchical collections, eXist-style: a document URI beginning with
// "/" lives in the collection named by its directory part
// ("/db/articles/a1.xml" is in "/db/articles"), and collections nest
// ("/db/articles" is inside "/db"). Legacy flat URIs without a leading
// slash ("books.xml", "articles/a1.xml") live in the root collection
// "/" — the pre-hierarchy behaviour, kept so existing callers and their
// prefix-style collection() URIs keep working unchanged.

// normCollection canonicalises a collection path: leading slash,
// path.Clean, no trailing slash (except the root "/").
func normCollection(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// collectionOf returns the collection a document URI belongs to.
func collectionOf(uri string) string {
	if !strings.HasPrefix(uri, "/") {
		return "/"
	}
	return path.Dir(path.Clean(uri))
}

// inCollection reports whether a document URI lives in col or any of
// its sub-collections (col is normalized). It works the document's
// collection out from the URI; scans match by the collection recorded
// at publish instead (inCollectionMatch), and agree with it.
func inCollection(col, uri string) bool {
	c := collectionOf(uri)
	return c == col || col == "/" || strings.HasPrefix(c, col+"/")
}

// colSet is the store's collection hierarchy: a mutex-guarded set of
// normalized paths. The root "/" always exists. The set is tiny
// compared to the document maps, so a single lock (not sharding) is
// the right shape for it.
type colSet struct {
	mu    sync.RWMutex
	paths map[string]struct{}
}

func newColSet() *colSet {
	return &colSet{paths: map[string]struct{}{"/": {}}}
}

// exists reports whether the normalized path is a known collection.
func (c *colSet) exists(p string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.paths[p]
	return ok
}

// create registers the normalized path and every missing ancestor,
// returning whether anything new was created.
func (c *colSet) create(p string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	created := false
	for q := p; ; q = path.Dir(q) {
		if _, ok := c.paths[q]; !ok {
			c.paths[q] = struct{}{}
			created = true
		}
		if q == "/" {
			break
		}
	}
	return created
}

// remove drops the normalized path and every collection beneath it.
// The root is never removed.
func (c *colSet) remove(p string) {
	if p == "/" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for q := range c.paths {
		if q == p || strings.HasPrefix(q, p+"/") {
			delete(c.paths, q)
		}
	}
}

// list returns every collection path, sorted.
func (c *colSet) list() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.paths))
	for p := range c.paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
