// Package index maintains lazily built, version-stamped per-document
// full-text indexes over dom trees — the access layer that makes
// ftcontains index-backed instead of scan-only:
//
//   - one token table over the document's text stream (the document-
//     order concatenation of every text node), each token carrying its
//     byte span, lower-cased form and Porter stem;
//   - inverted posting lists (lower-cased token → positions, stem →
//     positions) probed by word and phrase selections;
//   - a character-trigram index over the distinct vocabulary for
//     wildcard/substring query words;
//   - per-node byte ranges in a slice indexed by the node's
//     document-order label (dom.Node.Label, DESIGN.md §5t; the index
//     numbers nothing and keeps no map keyed by node), so any
//     element's token window is two binary searches.
//
// The key structural fact the layout exploits: an element's XDM string
// value is a contiguous substring of the document's text stream, so an
// element's tokens are exactly the stream tokens falling fully inside
// its byte range — except at the range edges, where a token merged
// across a text-node boundary (<a>foo<b>bar</b></a> tokenizes "foobar"
// at document level but "bar" inside <b>) can be clipped. Windows with
// a clipped edge token answer "cannot say" and the caller re-scans just
// that node, which keeps index answers byte-identical with the
// scan-only oracle.
//
// Invalidation mirrors internal/dom/index wholesale: every mutator
// bumps the tree root's version counter, an index is valid exactly
// while the version it was built at matches Node.Version(), and a
// stale index is ignored and lazily rebuilt — mutators pay zero
// full-text bookkeeping. The index lives in its own slot on the root
// node (Node.LoadFTIndexCache/StoreFTIndexCache) so it dies with its
// document, and Probe amortises rebuilds exactly like the path index.
package index

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/fulltext"
)

func init() {
	// A rolled-back update rewinds its tree's version counter, which
	// would let an index built during the rolled-back window read as
	// fresh once the counter climbs back to the build version (ABA).
	// Overwrite the slot with a permanently stale marker — atomic.Value
	// cannot store nil, and version ^0 never matches a live counter, so
	// every accessor sees "stale" and the next probe rebuilds.
	dom.OnVersionRestore(func(root *dom.Node) {
		if _, ok := root.LoadFTIndexCache().(*Doc); ok {
			root.StoreFTIndexCache(&Doc{root: root, version: ^uint64(0)})
		}
	})
}

// byteRange is a node's slice of the document text stream.
type byteRange struct {
	start, end int32
}

// Doc is one tree's full-text index, immutable after build (the two
// probe counters are advisory atomics for the rebuild heuristic, not
// index content).
type Doc struct {
	root    *dom.Node
	version uint64 // root.Version() at build time

	// text is the document text stream: every text node's data,
	// concatenated in document order. Equal to root.StringValue() for
	// document and element roots.
	text string

	// Token table, in stream order. Token i is text[tokStart[i]:
	// tokEnd[i]]; low and stem are its lower-cased form and the Porter
	// stem of that form.
	tokStart []int32
	tokEnd   []int32
	low      []string
	stem     []string

	// Inverted postings: lower-cased form → token positions, stem →
	// token positions. Both lists are sorted (build appends in stream
	// order).
	post     map[string][]int32
	stemPost map[string][]int32

	// vocab is the sorted distinct lower-cased vocabulary; gram maps
	// each byte trigram to the sorted vocab indexes containing it
	// (wildcard words resolve to vocabulary candidates through it).
	vocab []string
	gram  map[string][]int32

	// split lists the positions of tokens spanning more than one text
	// node: the only tokens whose clipped pieces can match inside a
	// descendant element.
	split []int32

	// The candidate floor the split tokens impose, precomputed at
	// build: every node whose byte range clips a split token (those
	// see a fragment of it the postings never indexed), in label
	// order. Candidate enumeration unions the in-scope stretch of this
	// list into every answer, which keeps probed candidate sets
	// supersets of the true result.
	floor []cand

	// Node tables: the byte range of every document, element and text
	// node, at the node's pre label (the other kinds' entries are
	// unused); the text nodes themselves with their stream offsets
	// (textEnds[i] = textStarts[i] + len(data)).
	ranges     []byteRange
	textNodes  []*dom.Node
	textStarts []int32
	textEnds   []int32

	// Probe's rebuild heuristic: how many probes arrived while this
	// index was stale, and at which tree version they were counted.
	// Racy by design — a lost increment only delays a rebuild by one
	// probe.
	probeV atomic.Uint64
	probeN atomic.Int64
}

// Package-wide counters (process lifetime). Builds is the test hook
// for "rebuild is lazy"; Hits counts selections and candidate probes
// answered from an index and surfaces in the profiler and
// serve.Metrics; Loads counts indexes attached from a persisted
// serialization instead of built.
var (
	builds atomic.Int64
	hits   atomic.Int64
	loads  atomic.Int64
)

// Stats is a snapshot of the package counters.
type Stats struct {
	Builds int64 // indexes constructed since process start
	Hits   int64 // probes answered from an index
	Loads  int64 // indexes attached from persisted form
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{Builds: builds.Load(), Hits: hits.Load(), Loads: loads.Load()}
}

// For returns a fresh index for the tree containing n, building one if
// the cached index is missing or stale. The returned Doc is valid
// until the tree's next mutation.
func For(n *dom.Node) *Doc {
	root := n.Root()
	if d, ok := root.LoadFTIndexCache().(*Doc); ok && d.version == root.Version() {
		return d
	}
	d := build(root)
	root.StoreFTIndexCache(d)
	return d
}

// rebuildProbes is Probe's amortisation threshold: a stale index is
// rebuilt only once this many probes have arrived at one unchanged
// tree version, so alternating mutate/query traffic settles into scans
// instead of paying a tokenize+stem pass per mutation.
const rebuildProbes = 4

// Probe returns a fresh index for the tree containing n if having one
// is worth it, or nil when the caller should scan; built reports
// whether this call constructed the index (the profiler's ft:builds
// attribution). A never-indexed tree builds immediately; a tree whose
// index went stale rebuilds only after rebuildProbes probes at the
// current version. This is the entry point for ftcontains evaluation;
// For bypasses the heuristic.
func Probe(n *dom.Node) (d *Doc, built bool) {
	root := n.Root()
	cached, ok := root.LoadFTIndexCache().(*Doc)
	if !ok {
		if faultpoint.Hit(faultpoint.PointFTIndexBuild) != nil {
			return nil, false // degrade: caller scans instead of building
		}
		return For(n), true
	}
	v := root.Version()
	if cached.version == v {
		return cached, false
	}
	if cached.probeV.Load() != v {
		cached.probeV.Store(v)
		cached.probeN.Store(0)
	}
	if cached.probeN.Add(1) < rebuildProbes {
		return nil, false
	}
	if faultpoint.Hit(faultpoint.PointFTIndexBuild) != nil {
		return nil, false // degrade: keep scanning until builds succeed again
	}
	return For(n), true
}

// Fresh returns the cached index for the tree containing n only if it
// is already built and current; it never builds.
func Fresh(n *dom.Node) *Doc {
	root := n.Root()
	if d, ok := root.LoadFTIndexCache().(*Doc); ok && d.version == root.Version() {
		return d
	}
	return nil
}

// build walks the tree once collecting the text stream and the node
// ranges (buildTree, shared with Attach), then tokenizes the stream
// and fills the token table, the postings, the vocabulary trigrams
// and the split-token list.
func build(root *dom.Node) *Doc {
	builds.Add(1)
	d := &Doc{root: root, version: root.Version()}
	buildTree(d, root)
	d.tokenizeStream()
	d.buildTables()
	return d
}

// tokenizeStream fills the token spans and the split-token list from
// d.text and d.textStarts.
func (d *Doc) tokenizeStream() {
	spans := fulltext.TokenizeSpans(d.text)
	d.tokStart = make([]int32, len(spans))
	d.tokEnd = make([]int32, len(spans))
	for i, s := range spans {
		d.tokStart[i] = int32(s.Start)
		d.tokEnd[i] = int32(s.End)
	}
	// A token is "split" when a non-degenerate text-node boundary falls
	// strictly inside it: its characters come from at least two text
	// nodes, so descendant elements may see clipped pieces of it.
	for i := range d.tokStart {
		if d.spansBoundary(i) {
			d.split = append(d.split, int32(i))
		}
	}
}

// spansBoundary reports whether token i crosses the start of a later
// text node (build-time helper; spans and starts are final).
func (d *Doc) spansBoundary(i int) bool {
	s, e := d.tokStart[i], d.tokEnd[i]
	j := sort.Search(len(d.textStarts), func(k int) bool { return d.textStarts[k] > s })
	for ; j < len(d.textStarts); j++ {
		b := d.textStarts[j]
		if b >= e {
			return false
		}
		if b > s {
			return true
		}
	}
	return false
}

// buildTables derives the per-token forms, the postings, and the
// vocabulary trigram index from the token spans. A stem array already
// sized to the token table (an Attach from persisted form) is kept —
// stemming is the expensive part of a build.
func (d *Doc) buildTables() {
	n := len(d.tokStart)
	d.low = make([]string, n)
	if len(d.stem) != n {
		d.stem = make([]string, n)
	}
	d.post = make(map[string][]int32, n/2+1)
	d.stemPost = make(map[string][]int32, n/2+1)
	for i := 0; i < n; i++ {
		raw := d.text[d.tokStart[i]:d.tokEnd[i]]
		low := lowerToken(raw)
		d.low[i] = low
		if d.stem[i] == "" {
			d.stem[i] = fulltext.Stem(low)
		}
		d.post[low] = append(d.post[low], int32(i))
		d.stemPost[d.stem[i]] = append(d.stemPost[d.stem[i]], int32(i))
	}
	d.vocab = make([]string, 0, len(d.post))
	for v := range d.post {
		d.vocab = append(d.vocab, v)
	}
	sort.Strings(d.vocab)
	d.gram = make(map[string][]int32)
	for vi, v := range d.vocab {
		for _, tri := range trigrams(v) {
			g := d.gram[tri]
			if len(g) > 0 && g[len(g)-1] == int32(vi) {
				continue
			}
			d.gram[tri] = append(g, int32(vi))
		}
	}
	d.buildFloor()
}

// buildFloor precomputes the split-token candidate floor: for each
// split token, the ancestors of its spanning text nodes whose byte
// ranges clip the token. Only those nodes see a fragment of the token
// in their local tokenization (a piece the postings never indexed, so
// a query word can match it invisibly); an ancestor containing the
// whole token sees the joined form the postings hold and needs no
// floor. The floor depends only on the document, so computing it here
// keeps Candidates from re-deriving (and re-sorting) it per probe.
func (d *Doc) buildFloor() {
	var floor []cand
	for _, sp := range d.split {
		p := int(sp)
		s, e := d.tokStart[p], d.tokEnd[p]
		for _, tn := range d.tokenTextNodes(p) {
			for cur := tn; cur != nil; cur = cur.Parent() {
				at := pre(cur)
				if r := d.ranges[at]; r.start > s || r.end < e {
					floor = append(floor, cand{pre: at, n: cur})
				}
			}
		}
	}
	d.floor = sortCands(floor)
}

// lowerToken lower-cases a token, returning the input itself when it
// is already lower-case ASCII (the common case — zero allocation).
func lowerToken(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' || c >= 0x80 {
			return strings.ToLower(s)
		}
	}
	return s
}

// trigrams returns the byte trigrams of s (duplicates included; the
// caller dedups adjacent repeats).
func trigrams(s string) []string {
	if len(s) < 3 {
		return nil
	}
	out := make([]string, 0, len(s)-2)
	for i := 0; i+3 <= len(s); i++ {
		out = append(out, s[i:i+3])
	}
	return out
}

// fresh reports whether the index still matches its tree. Every
// accessor checks it before touching the token table or postings: a
// Doc held across a mutation answers ok=false and the caller falls
// back to scanning.
func (d *Doc) fresh() bool { return d.version == d.root.Version() }

// TokenCount returns the number of tokens in the document stream, and
// whether the index could answer.
func (d *Doc) TokenCount() (int, bool) {
	if !d.fresh() {
		return 0, false
	}
	return len(d.tokStart), true
}
