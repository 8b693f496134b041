// Package index maintains lazily built, version-stamped per-document
// full-text indexes over dom trees — the access layer that makes
// ftcontains index-backed instead of scan-only:
//
//   - one token table over the document's text stream (the document-
//     order concatenation of every text node), each token carrying its
//     byte span, lower-cased form and Porter stem;
//   - inverted posting lists (lower-cased token → positions, stem →
//     positions) probed by word and phrase selections;
//   - the sorted distinct vocabulary, which wildcard query words are
//     matched against;
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
// Where the index is kept, when it is current, when a stale one is
// rebuilt and what a rollback does to it is package dom's lifecycle
// (dom.Index, DESIGN.md §5v), the path index's too: the index lives in
// its own slot on the tree's root, so it dies with its document, and
// holds for the version it was built at, so mutators pay zero
// full-text bookkeeping. A Doc held across a mutation refuses to
// answer (fresh).
package index

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/fulltext"
)

// lifecycle keeps the full-text index in its root slot: dom decides
// when it is current, rebuilt and dropped (DESIGN.md §5v).
var lifecycle = dom.Index[Doc]{Slot: dom.FTIndexSlot, Fault: faultpoint.PointFTIndexBuild, Build: build}

// byteRange is a node's slice of the document text stream.
type byteRange struct {
	start, end int32
}

// Doc is one tree's full-text index, immutable after build.
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

	// vocab is the sorted distinct lower-cased vocabulary (wildcard
	// words resolve to the entries they match).
	vocab []string

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

// For returns a current index of the tree containing n, building one
// if there is none. The returned Doc is valid until the tree's next
// mutation.
func For(n *dom.Node) *Doc { return lifecycle.For(n) }

// Probe returns the index an ftcontains evaluation may read, or nil
// when the caller should scan; built reports whether this call built
// it (the profiler's ft:builds attribution). When a stale index is
// rebuilt and when a build degrades to a scan is dom.Index.Probe's
// policy; For bypasses it.
func Probe(n *dom.Node) (d *Doc, built bool) { return lifecycle.Probe(n) }

// Fresh returns the index of the tree containing n only if it is
// already built and current; it never builds.
func Fresh(n *dom.Node) *Doc { return lifecycle.Fresh(n) }

// build walks the tree once collecting the text stream and the node
// ranges (buildTree, shared with Attach), then tokenizes the stream
// and fills the token table, the postings, the vocabulary and the
// split-token list.
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

// buildTables derives the per-token forms, the postings and the
// vocabulary from the token spans. A stem array already
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
				at, _, _ := cur.Label()
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
