// Package index maintains lazily built, version-stamped per-document
// indexes over dom trees — the access-path layer the path planner
// (internal/xquery/plan) routes descendant-heavy steps to:
//
//   - an element-name index (expanded QName → elements in document
//     order), probed by //x-style steps;
//   - an "id" attribute index (value → elements in document order),
//     probed by descendant::x[@id="..."] steps and fn:id;
//   - document-order pre/size numbering (a span per node), giving O(1)
//     descendant tests, O(log n) subtree slicing of the name lists, and
//     merge-based dedup/sort of step results.
//
// Invalidation is wholesale and free for mutators: every mutator in
// dom/tree.go already bumps the tree root's version counter, and an
// index is valid exactly while the version it was built at matches
// Node.Version(). A stale index is simply ignored and rebuilt on next
// use, so the Update Facility's apply phase needs zero index
// bookkeeping. The index lives in a slot on the root node itself
// (Node.LoadIndexCache/StoreIndexCache), so it is garbage-collected
// with its document.
//
// Concurrency: building is idempotent — two goroutines racing on a
// cold tree both build and the slot keeps the last store; either value
// is correct for that version. Reads of a published *Doc are safe
// because a Doc is immutable after build. (Reading a dom tree
// concurrently with mutation was never safe; the index does not change
// that contract.)
package index

import (
	"sort"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
)

func init() {
	// A rolled-back update rewinds its tree's version counter, which
	// would let an index built during the rolled-back window read as
	// fresh once the counter climbs back to the build version (ABA).
	// Overwrite the slot with a permanently stale marker — atomic.Value
	// cannot store nil, and neverFresh never matches a live counter, so
	// every accessor sees "stale" and the next probe rebuilds.
	dom.OnVersionRestore(func(root *dom.Node) {
		if _, ok := root.LoadIndexCache().(*Doc); ok {
			root.StoreIndexCache(&Doc{root: root, version: neverFresh})
		}
	})
}

// neverFresh is the build version of a Doc that holds no maps, only
// Probe's counters: no tree's counter reaches it, so such a Doc is
// stale for good, whichever way the counter moves.
const neverFresh = ^uint64(0)

// span is a node's position in the pre-order numbering: the node's own
// number and the largest number in its subtree (attributes included).
// d is a descendant of a iff a.pre < d.pre && d.pre <= a.end.
type span struct {
	pre, end uint64
}

// nameKey is an expanded element name (prefixes are irrelevant).
type nameKey struct {
	space, local string
}

// Doc is one tree's index, immutable after build (the two probe
// counters are advisory atomics for the rebuild heuristic, not index
// content). All node slices are in document order.
type Doc struct {
	root    *dom.Node
	version uint64 // root.Version() at build time

	names map[nameKey][]*dom.Node // element-name index
	ids   map[string][]*dom.Node  // no-namespace "id" attribute index
	order map[*dom.Node]span      // pre/size numbering, every node

	// Probe's rebuild heuristic: how many probes arrived while this
	// index was stale, and at which tree version they were counted.
	// Racy by design — a lost increment only delays a rebuild by one
	// probe.
	probeV atomic.Uint64
	probeN atomic.Int64
}

// Package-wide counters (process lifetime): how many indexes were
// built, and how many probes were answered from an index. Builds is
// the test hook for "rebuild is lazy"; Hits surfaces in the profiler
// and serve.Metrics.
var (
	builds atomic.Int64
	hits   atomic.Int64
)

// Stats is a snapshot of the package counters.
type Stats struct {
	Builds int64 // indexes constructed since process start
	Hits   int64 // probes answered from an index
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{Builds: builds.Load(), Hits: hits.Load()}
}

// For returns a fresh index for the tree containing n, building one if
// the cached index is missing or stale. The returned Doc is valid
// until the tree's next mutation.
func For(n *dom.Node) *Doc {
	root := n.Root()
	if d, ok := root.LoadIndexCache().(*Doc); ok && d.version == root.Version() {
		return d
	}
	d := build(root)
	root.StoreIndexCache(d)
	return d
}

// rebuildProbes is Probe's amortisation threshold: a stale index is
// rebuilt only once this many probes have arrived at one unchanged
// tree version. Building costs a few tree walks' worth of map inserts,
// so a mutation-heavy workload (an event listener that queries a page
// it is about to mutate again) must not rebuild per version — its
// probes scan instead — while any read phase that settles on a version
// crosses the threshold almost immediately and gets the index back.
const rebuildProbes = 4

// Probe returns a fresh index for the tree containing n if having one
// is worth it, or nil when the caller should scan. A never-indexed
// tree builds immediately (first probe wins for every read-only
// workload); a tree whose index went stale rebuilds only after
// rebuildProbes probes at the current version, so alternating
// mutate/query traffic settles into scans instead of paying a full
// rebuild per mutation. This is the entry point for the runtime's
// planned path steps and fn:id; For bypasses the heuristic.
func Probe(n *dom.Node) *Doc {
	root := n.Root()
	d, ok := root.LoadIndexCache().(*Doc)
	if !ok {
		if faultpoint.Hit(faultpoint.PointIndexBuild) != nil {
			return nil // degrade: caller scans instead of building
		}
		return For(n)
	}
	v := root.Version()
	if d.version == v {
		return d
	}
	if d.version != neverFresh {
		// The index is dead, and on a page that keeps mutating nothing
		// would replace it: keep the probe counters, let the maps go.
		// A Doc someone still holds stays what it was — stale — and
		// neverFresh (not the old version) is what keeps a rewound
		// counter from reviving the slot.
		d = &Doc{root: root, version: neverFresh}
		root.StoreIndexCache(d)
	}
	if d.probeV.Load() != v {
		d.probeV.Store(v)
		d.probeN.Store(0)
	}
	if d.probeN.Add(1) < rebuildProbes {
		return nil
	}
	if faultpoint.Hit(faultpoint.PointIndexBuild) != nil {
		return nil // degrade: keep scanning until builds succeed again
	}
	return For(n)
}

// Fresh returns the cached index for the tree containing n only if it
// is already built and current; it never builds. Callers with a cheap
// fallback (the document-order sort in the runtime) use this so that
// workloads which never probe an index never pay for building one.
func Fresh(n *dom.Node) *Doc {
	root := n.Root()
	if d, ok := root.LoadIndexCache().(*Doc); ok && d.version == root.Version() {
		return d
	}
	return nil
}

// build walks the tree once, numbering every node (elements, text,
// comments, PIs and attributes — the same visit order as the
// document-order stamps in dom) and filling the name and id maps.
func build(root *dom.Node) *Doc {
	builds.Add(1)
	d := &Doc{
		root:    root,
		version: root.Version(),
		names:   map[nameKey][]*dom.Node{},
		ids:     map[string][]*dom.Node{},
		order:   map[*dom.Node]span{},
	}
	var pre uint64
	var visit func(n *dom.Node) uint64
	visit = func(n *dom.Node) uint64 {
		pre++
		my := pre
		if n.Type == dom.ElementNode {
			k := nameKey{space: n.Name.Space, local: n.Name.Local}
			d.names[k] = append(d.names[k], n)
			if id := n.AttrValue("id"); id != "" {
				d.ids[id] = append(d.ids[id], n)
			}
		}
		for _, a := range n.Attrs() {
			pre++
			d.order[a] = span{pre: pre, end: pre}
		}
		end := pre
		for _, c := range n.Children() {
			end = visit(c)
		}
		d.order[n] = span{pre: my, end: end}
		return end
	}
	visit(root)
	return d
}

// fresh reports whether the index still matches its tree. Every
// accessor checks it before touching the maps: a Doc held across a
// mutation answers ok=false and the caller falls back to scanning.
func (d *Doc) fresh() bool { return d.version == d.root.Version() }

// IsDescendant reports whether desc is a proper descendant of anc, in
// O(1). ok is false when the index cannot answer (stale, or a node is
// not in this tree).
func (d *Doc) IsDescendant(anc, desc *dom.Node) (is, ok bool) {
	if !d.fresh() {
		return false, false
	}
	a, okA := d.order[anc]
	x, okB := d.order[desc]
	if !okA || !okB {
		return false, false
	}
	return a.pre < x.pre && x.pre <= a.end, true
}

// DescendantsByName returns the elements with the given expanded name
// inside n's subtree, in document order, sliced out of the name list
// by binary search on the pre numbers (no allocation). orSelf includes
// n itself when it carries the name. ok is false when the index is
// stale or n is not in this tree; the caller must then scan.
func (d *Doc) DescendantsByName(n *dom.Node, space, local string, orSelf bool) (nodes []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	s, okN := d.order[n]
	if !okN {
		return nil, false
	}
	list := d.names[nameKey{space: space, local: local}]
	lo := s.pre + 1
	if orSelf {
		lo = s.pre
	}
	i := sort.Search(len(list), func(i int) bool { return d.order[list[i]].pre >= lo })
	j := sort.Search(len(list), func(j int) bool { return d.order[list[j]].pre > s.end })
	hits.Add(1)
	return list[i:j], true
}

// DescendantsByID returns the elements inside n's subtree whose "id"
// attribute equals id, in document order. orSelf includes n itself.
// The id list for one value is almost always a singleton, so this
// filters linearly instead of slicing.
func (d *Doc) DescendantsByID(n *dom.Node, id string, orSelf bool) (nodes []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	s, okN := d.order[n]
	if !okN {
		return nil, false
	}
	lo := s.pre + 1
	if orSelf {
		lo = s.pre
	}
	var out []*dom.Node
	for _, e := range d.ids[id] {
		if p := d.order[e].pre; p >= lo && p <= s.end {
			out = append(out, e)
		}
	}
	hits.Add(1)
	return out, true
}

// ByID returns every element in the tree whose "id" attribute equals
// id, in document order (fn:id's per-value lookup).
func (d *Doc) ByID(id string) (nodes []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	hits.Add(1)
	return d.ids[id], true
}

// SortDedup document-orders and deduplicates nodes in place using the
// pre numbers: O(k) when the input is already sorted (the common case
// for per-step results, which arrive in document order per focus
// node), O(k log k) otherwise — never the O(tree) re-stamp of the
// fallback path. ok is false when the index is stale or some node is
// outside this tree (e.g. freshly constructed content); the caller
// must then fall back to the comparison sort.
func (d *Doc) SortDedup(nodes []*dom.Node) (out []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	pres := make([]uint64, len(nodes))
	sorted := true
	for i, n := range nodes {
		s, okN := d.order[n]
		if !okN {
			return nil, false
		}
		pres[i] = s.pre
		if i > 0 && s.pre < pres[i-1] {
			sorted = false
		}
	}
	if !sorted {
		sort.Sort(&byPre{nodes: nodes, pres: pres})
	}
	// Adjacent dedup: equal pre numbers mean the same node.
	w := 0
	for i, n := range nodes {
		if i > 0 && pres[i] == pres[w-1] {
			continue
		}
		nodes[w], pres[w] = n, pres[i]
		w++
	}
	return nodes[:w], true
}

// byPre sorts a node slice by pre number, keeping the two slices
// aligned.
type byPre struct {
	nodes []*dom.Node
	pres  []uint64
}

func (s *byPre) Len() int           { return len(s.nodes) }
func (s *byPre) Less(i, j int) bool { return s.pres[i] < s.pres[j] }
func (s *byPre) Swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.pres[i], s.pres[j] = s.pres[j], s.pres[i]
}
