package xmldb

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"repro/internal/dom"
)

// The store's document space is partitioned across N sub-stores by a
// consistent hash of the document URI. Shards bound lock contention
// (writers to different shards never queue on each other); a
// collection scan reads each shard's URI-sorted slice of the
// collection and merges them in URI order. Shard assignment is
// recomputed from the URI alone, so a directory written with one shard
// count reopens correctly under any other — the partitioning is an
// in-memory layout, not an on-disk one.
//
// Each shard keeps the sorted slice of every collection a scan asked it
// for (colSnapshot), so a repeated scan costs what its collection
// holds, not a walk of the shard: a commit drops, under the shard's
// write lock, every cached slice whose collection contains the changed
// URI, and a slice built while a commit went in is not kept.
//
// This file owns every raw access to the shard's document map and its
// snapshot cache; the rest of the package (and the repo — the
// storesync vet pass enforces it) goes through the methods here, which
// uphold the lock discipline.

// docRev is one committed, immutable document revision — the MVCC unit.
// A reader that obtained a docRev iterates its tree without locks:
// commits publish new revisions, they never mutate published ones. domV
// records the tree's dom version counter at publish time, so staleness
// of any cached derivation (the PR 4 per-document indexes) and
// accidental in-place mutation are both detectable by comparing
// root.Version() against it.
type docRev struct {
	root *dom.Node
	rev  uint64 // per-document revision number, 1-based
	domV uint64 // root.Version() at publish: published trees are immutable
	col  string // collectionOf(uri), worked out once, at publish
}

// mutated reports whether someone wrote to the published tree in place
// (legacy callers that update a resolver-returned node bypass MVCC).
func (d *docRev) mutated() bool { return d.root.Version() != d.domV }

// shard is one sub-store: a mutex-guarded URI → current-revision map,
// and the snapshots of the collections scans read from it.
type shard struct {
	mu   sync.RWMutex
	docs map[string]*docRev
	// colSnaps maps a normalized collection to the shard's documents in
	// it and its sub-collections, sorted by URI: shared, read-only, and
	// current — a commit deletes every entry its URI is in.
	colSnaps map[string][]docEntry
	// commits counts the changes to docs, so that a snapshot built
	// outside the lock is cached only if no commit went in meanwhile.
	commits uint64
}

func newShard() *shard {
	return &shard{docs: map[string]*docRev{}, colSnaps: map[string][]docEntry{}}
}

// get returns the current revision of a document.
func (sh *shard) get(uri string) (*docRev, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.docs[uri]
	return d, ok
}

// publish installs root as the next revision of uri and returns it.
func (sh *shard) publish(uri string, root *dom.Node) *docRev {
	d := &docRev{root: root, rev: 1, domV: root.Version(), col: collectionOf(uri)}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.docs[uri]; ok {
		d.rev = cur.rev + 1
	}
	sh.docs[uri] = d
	sh.changed(d.col)
	return d
}

// remove deletes a document, reporting whether it existed.
func (sh *shard) remove(uri string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, ok := sh.docs[uri]
	if ok {
		delete(sh.docs, uri)
		sh.changed(d.col)
	}
	return ok
}

// removeWhere deletes every document whose URI matches, returning the
// removed URIs. It drops every cached snapshot.
func (sh *shard) removeWhere(match func(uri string) bool) []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []string
	for uri := range sh.docs {
		if match(uri) {
			delete(sh.docs, uri)
			out = append(out, uri)
		}
	}
	sh.commits++
	clear(sh.colSnaps)
	return out
}

// changed records a commit to a document of collection col: it drops
// the snapshots of col and of every collection above it, which hold
// the superseded revision. Caller holds the write lock.
func (sh *shard) changed(col string) {
	sh.commits++
	for c := range sh.colSnaps {
		if c == "/" || c == col || strings.HasPrefix(col, c) && col[len(c)] == '/' {
			delete(sh.colSnaps, c)
		}
	}
}

// count returns the number of documents in the shard.
func (sh *shard) count() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.docs)
}

// docEntry pairs a URI with the revision a scan observed.
type docEntry struct {
	uri string
	rev *docRev
}

// docMatch filters a scan: by URI, or by what is recorded beside the
// revision.
type docMatch func(uri string, d *docRev) bool

// inCollectionMatch matches the documents of the normalized collection
// col and of its sub-collections by the collection recorded beside
// each revision: two string comparisons per document, nothing worked
// out and nothing allocated. nil (everything) for the root.
func inCollectionMatch(col string) docMatch {
	if col == "/" {
		return nil
	}
	below := col + "/"
	return func(_ string, d *docRev) bool { return d.col == col || strings.HasPrefix(d.col, below) }
}

// colSnapshot returns the shard's documents in the normalized
// collection col and its sub-collections, sorted by URI: the cached
// snapshot, or one built by snapshotSorted and cached unless a commit
// went in while it was built. The slice is shared: callers only read
// it.
func (sh *shard) colSnapshot(col string) []docEntry {
	sh.mu.RLock()
	snap, ok := sh.colSnaps[col]
	sh.mu.RUnlock()
	if ok {
		return snap
	}
	snap, commits := sh.snapshotSorted(inCollectionMatch(col))
	sh.mu.Lock()
	if sh.commits == commits {
		sh.colSnaps[col] = snap
	}
	sh.mu.Unlock()
	return snap
}

// snapshotSorted collects the shard's documents matching the filter
// (nil matches all), sorted by URI. The returned entries are a
// point-in-time snapshot: later commits to the shard do not affect
// them, and their trees are immutable revisions. The result is sized
// for what matches, not for the shard, so a scan's cost in memory is
// that of its collection. commits is the shard's commit count at the
// point in time the snapshot shows.
func (sh *shard) snapshotSorted(match docMatch) (entries []docEntry, commits uint64) {
	sh.mu.RLock()
	commits = sh.commits
	n := len(sh.docs)
	if match != nil {
		n = 0
		for uri, d := range sh.docs {
			if match(uri, d) {
				n++
			}
		}
	}
	entries = make([]docEntry, 0, n)
	for uri, d := range sh.docs {
		if match == nil || match(uri, d) {
			entries = append(entries, docEntry{uri: uri, rev: d})
		}
	}
	sh.mu.RUnlock()
	slices.SortFunc(entries, func(a, b docEntry) int { return strings.Compare(a.uri, b.uri) })
	return entries, commits
}

// --- consistent hashing ----------------------------------------------------------

// shardIndex maps a URI to a shard by consistent hash (Lamping-Veach
// jump hash over a 64-bit FNV-1a of the URI): when the shard count
// changes, only ~1/n of the URIs move, so re-partitioning a reopened
// store touches the minimum number of documents.
func shardIndex(uri string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(uri))
	key := h.Sum64()
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// --- scan + merge ------------------------------------------------------------------

// scanShards snapshots every shard in turn and returns the per-shard
// sorted entry lists, ready for merging: the uncached walk, for the
// scans that are not of one collection (List, a checkpoint, the legacy
// prefix match).
func scanShards(shards []*shard, match docMatch) [][]docEntry {
	parts := make([][]docEntry, len(shards))
	for i, sh := range shards {
		parts[i], _ = sh.snapshotSorted(match)
	}
	return parts
}

// mergeEntries merges per-shard sorted lists into one URI-ordered list.
func mergeEntries(parts [][]docEntry) []docEntry {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]docEntry, 0, total)
	m := newMerger(parts)
	for {
		e, ok := m.next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// merger is an incremental k-way merge over per-shard sorted entry
// lists — the streaming core of CollectionIter: pulling the next
// document costs O(k), not a full materialised merge, so an early-exit
// consumer (collection()[1]) stops after one step.
type merger struct {
	parts [][]docEntry
	pos   []int
}

func newMerger(parts [][]docEntry) *merger {
	return &merger{parts: parts, pos: make([]int, len(parts))}
}

func (m *merger) next() (docEntry, bool) {
	best := -1
	for i, p := range m.parts {
		if m.pos[i] >= len(p) {
			continue
		}
		if best < 0 || p[m.pos[i]].uri < m.parts[best][m.pos[best]].uri {
			best = i
		}
	}
	if best < 0 {
		return docEntry{}, false
	}
	e := m.parts[best][m.pos[best]]
	m.pos[best]++
	return e, true
}
