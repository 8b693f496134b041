package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/dom"
	"repro/internal/fulltext"
)

// Sel is a resolved full-text selection: the runtime evaluates the
// FTWords source expressions of an ast.FTSelection and hands the
// resulting phrase lists here, so this package never sees the AST.
type Sel interface{ ftSel() }

// Words matches a list of phrases. All=false ("any", the default)
// matches when any phrase occurs consecutively; All=true matches when
// every phrase has all its words present (anywhere). An empty phrase
// list never matches.
type Words struct {
	Phrases []string
	All     bool
	Opts    fulltext.Options
}

// And requires both selections to match.
type And struct{ L, R Sel }

// Or requires either selection to match.
type Or struct{ L, R Sel }

// Not negates a selection.
type Not struct{ X Sel }

func (Words) ftSel() {}
func (And) ftSel()   {}
func (Or) ftSel()    {}
func (Not) ftSel()   {}

// Term is one positive query word with its match options — the unit
// TF-IDF scoring sums over.
type Term struct {
	Word string
	Opts fulltext.Options
}

// ScoreTerms extracts the scoring terms of a selection: every word of
// every phrase outside ftnot subtrees, in selection order. Both the
// index and the scan path score the same term list, which is what
// keeps ft:score identical between them.
func ScoreTerms(sel Sel) []Term {
	var out []Term
	var walk func(s Sel)
	walk = func(s Sel) {
		switch x := s.(type) {
		case Words:
			for _, p := range x.Phrases {
				for _, w := range fulltext.QueryWords(p, x.Opts) {
					out = append(out, Term{Word: w, Opts: x.Opts})
				}
			}
		case And:
			walk(x.L)
			walk(x.R)
		case Or:
			walk(x.L)
			walk(x.R)
		case Not:
			// negative terms do not contribute to relevance
		}
	}
	walk(sel)
	return out
}

// MatchTokens evaluates a resolved selection against one node's token
// list — the scan-side matcher. The index's Match must agree with this
// function on every input; both bottom out in the fulltext package's
// matchers.
func MatchTokens(tokens []string, sel Sel) bool {
	switch x := sel.(type) {
	case Words:
		if len(x.Phrases) == 0 {
			return false
		}
		for _, p := range x.Phrases {
			var ok bool
			if x.All {
				ok = fulltext.ContainsAllWords(tokens, p, x.Opts)
			} else {
				ok = fulltext.ContainsPhrase(tokens, p, x.Opts)
			}
			if ok && !x.All {
				return true
			}
			if !ok && x.All {
				return false
			}
		}
		return x.All
	case And:
		return MatchTokens(tokens, x.L) && MatchTokens(tokens, x.R)
	case Or:
		return MatchTokens(tokens, x.L) || MatchTokens(tokens, x.R)
	case Not:
		return !MatchTokens(tokens, x.X)
	default:
		return false
	}
}

// ScoreTokens computes the scan-side TF-IDF score of one node against
// the query terms: tf over the node's own tokens times
// ln(1 + N/(1+cf)) where N is the document stream's token count and cf
// the term's document-wide occurrence count. docCount must answer cf
// for a term (the scan path memoises counts over the root's token
// stream; the index answers from postings). Terms with zero tf
// contribute nothing.
func ScoreTokens(nodeTokens []string, total int, terms []Term, docCount func(Term) int) float64 {
	score := 0.0
	for _, t := range terms {
		m := fulltext.WordMatcher(t.Word, t.Opts)
		tf := 0
		for _, tok := range nodeTokens {
			if m(tok) {
				tf++
			}
		}
		if tf == 0 {
			continue
		}
		idf := math.Log(1 + float64(total)/float64(1+docCount(t)))
		score += float64(tf) * idf
	}
	return score
}

// rangeOf returns n's slice of the text stream and the label interval
// of its subtree. ok is false when the index cannot answer for n:
// stale, a node of another tree or of constructed content, or a kind
// the text stream does not range (attributes, comments, PIs).
func (d *Doc) rangeOf(n *dom.Node) (r byteRange, lo, hi uint32, ok bool) {
	if !d.fresh() {
		return byteRange{}, 0, 0, false
	}
	switch n.Type {
	case dom.TextNode, dom.ElementNode, dom.DocumentNode:
	default:
		return byteRange{}, 0, 0, false
	}
	lo, hi, root := n.Label()
	if root != d.root {
		return byteRange{}, 0, 0, false
	}
	return d.ranges[lo], lo, hi, true
}

// pre is n's rank in document order.
func pre(n *dom.Node) uint32 {
	p, _, _ := n.Label()
	return p
}

// window locates a node range's token window: [lo, hi) are the tokens
// fully inside the range, dirty reports that a token is clipped by a
// range edge (the node's own tokenization then differs from the
// window and the caller must re-scan the node).
func (d *Doc) window(r byteRange) (lo, hi int, dirty bool) {
	lo = sort.Search(len(d.tokStart), func(i int) bool { return d.tokStart[i] >= r.start })
	hi = sort.Search(len(d.tokEnd), func(i int) bool { return d.tokEnd[i] > r.end })
	if lo > 0 && d.tokEnd[lo-1] > r.start {
		dirty = true
	}
	if hi < len(d.tokStart) && d.tokStart[hi] < r.end {
		dirty = true
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, dirty
}

// Match answers "does node n match sel" from the index. ok is false
// when the index cannot answer exactly — stale index, a node kind
// outside the indexed set (attributes, comments, PIs), or a window
// with a clipped edge token — and the caller must scan that node.
func (d *Doc) Match(n *dom.Node, sel Sel) (matched, ok bool) {
	r, _, _, okR := d.rangeOf(n)
	if !okR {
		return false, false
	}
	lo, hi, dirty := d.window(r)
	if dirty {
		return false, false
	}
	hits.Add(1)
	return d.matchSel(lo, hi, sel), true
}

// matchSel evaluates a selection over a clean token window, mirroring
// MatchTokens exactly. Callers hold the freshness check.
func (d *Doc) matchSel(lo, hi int, sel Sel) bool {
	switch x := sel.(type) {
	case Words:
		if len(x.Phrases) == 0 {
			return false
		}
		for _, p := range x.Phrases {
			var ok bool
			if x.All {
				ok = d.allWordsIn(lo, hi, p, x.Opts)
			} else {
				ok = d.phraseIn(lo, hi, p, x.Opts)
			}
			if ok && !x.All {
				return true
			}
			if !ok && x.All {
				return false
			}
		}
		return x.All
	case And:
		return d.matchSel(lo, hi, x.L) && d.matchSel(lo, hi, x.R)
	case Or:
		return d.matchSel(lo, hi, x.L) || d.matchSel(lo, hi, x.R)
	case Not:
		return !d.matchSel(lo, hi, x.X)
	default:
		return false
	}
}

// phraseIn mirrors fulltext.ContainsPhrase over a window: the phrase's
// words must match consecutive tokens.
func (d *Doc) phraseIn(lo, hi int, phrase string, o fulltext.Options) bool {
	words := fulltext.QueryWords(phrase, o)
	if len(words) == 0 {
		return false
	}
	found := false
	d.eachWordPos(lo, hi-len(words)+1, words[0], o, func(p int) bool {
		for j := 1; j < len(words); j++ {
			if !d.tokMatch(p+j, words[j], o) {
				return false
			}
		}
		found = true
		return true
	})
	return found
}

// allWordsIn mirrors fulltext.ContainsAllWords over a window.
func (d *Doc) allWordsIn(lo, hi int, phrase string, o fulltext.Options) bool {
	words := fulltext.QueryWords(phrase, o)
	if len(words) == 0 {
		return false
	}
	for _, w := range words {
		if !d.wordOccurs(lo, hi, w, o) {
			return false
		}
	}
	return true
}

// wordOccurs reports whether any token in [lo, hi) matches the query
// word under the options.
func (d *Doc) wordOccurs(lo, hi int, w string, o fulltext.Options) bool {
	found := false
	d.eachWordPos(lo, hi, w, o, func(int) bool { found = true; return true })
	return found
}

// tokMatch reports whether token p matches one query word — the O(1)
// per-token check phrase verification uses.
func (d *Doc) tokMatch(p int, w string, o fulltext.Options) bool {
	if !d.fresh() || p >= len(d.low) {
		return false
	}
	if o.Wildcards && fulltext.HasWildcard(w) {
		return fulltext.WordMatcher(w, o)(d.text[d.tokStart[p]:d.tokEnd[p]])
	}
	if o.Stemming {
		return d.stem[p] == fulltext.Normalize(w, o)
	}
	if o.CaseSensitive {
		return d.text[d.tokStart[p]:d.tokEnd[p]] == w
	}
	return d.low[p] == lowerToken(w)
}

// eachWordPos calls fn with every token position in [lo, hi) matching
// the query word, stopping early when fn returns true. Positions
// arrive sorted for plain and stemmed words; wildcard words iterate
// per vocabulary candidate, so their positions arrive grouped, not
// globally sorted (fine for the set/occurrence uses).
func (d *Doc) eachWordPos(lo, hi int, w string, o fulltext.Options, fn func(p int) bool) {
	if hi <= lo || !d.fresh() {
		return
	}
	emitRange := func(ps []int32, filter func(p int) bool) bool {
		i := sort.Search(len(ps), func(i int) bool { return ps[i] >= int32(lo) })
		for ; i < len(ps) && ps[i] < int32(hi); i++ {
			p := int(ps[i])
			if filter != nil && !filter(p) {
				continue
			}
			if fn(p) {
				return true
			}
		}
		return false
	}
	switch {
	case o.Wildcards && fulltext.HasWildcard(w):
		pat := strings.ToLower(w)
		var csMatch func(string) bool
		if o.CaseSensitive {
			csMatch = fulltext.WildcardRegexp(w).MatchString
		}
		for _, vi := range d.vocabMatches(pat) {
			ps := d.post[d.vocab[vi]]
			stop := emitRange(ps, func(p int) bool {
				return csMatch == nil || csMatch(d.text[d.tokStart[p]:d.tokEnd[p]])
			})
			if stop {
				return
			}
		}
	case o.Stemming:
		emitRange(d.stemPost[fulltext.Normalize(w, o)], nil)
	case o.CaseSensitive:
		emitRange(d.post[lowerToken(w)], func(p int) bool {
			return d.text[d.tokStart[p]:d.tokEnd[p]] == w
		})
	default:
		emitRange(d.post[lowerToken(w)], nil)
	}
}

// vocabMatches resolves a lower-cased wildcard pattern to the vocab
// indexes whose token matches it. Literal trigrams of the pattern
// narrow the candidates through the trigram index; a pattern with no
// trigram-length literal scans the whole (distinct) vocabulary.
func (d *Doc) vocabMatches(pat string) []int32 {
	if !d.fresh() {
		return nil
	}
	re := fulltext.WildcardRegexp(pat)
	var cand []int32
	narrowed := false
	for _, lit := range fulltext.WildcardLiterals(pat) {
		for _, tri := range trigrams(lit) {
			g := d.gram[tri]
			if !narrowed {
				cand = append(cand[:0], g...)
				narrowed = true
			} else {
				cand = intersectSorted(cand, g)
			}
			if len(cand) == 0 && narrowed {
				return nil
			}
		}
	}
	if !narrowed {
		out := make([]int32, 0, 8)
		for vi, v := range d.vocab {
			if re.MatchString(v) {
				out = append(out, int32(vi))
			}
		}
		return out
	}
	out := cand[:0]
	for _, vi := range cand {
		if re.MatchString(d.vocab[vi]) {
			out = append(out, vi)
		}
	}
	return out
}

// intersectSorted intersects two sorted int32 lists into a (reused
// where possible).
func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Candidates enumerates a superset of the nodes inside scope's subtree
// (scope itself included when orSelf) that can match sel, in document
// order: for every position of every required word, the ancestor chain
// of the owning text node up to scope — unioned with the in-scope
// stretch of the precomputed split-token floor (see buildFloor), whose
// clipped token pieces can match anything. ftand intersects the
// per-word node sets, ftor unions them, and ftnot (or an unanswerable
// side) makes that branch "unknown"; a selection that resolves to
// unknown returns ok=false and the caller scans the axis. Unioning the
// floor once at the end is exact — union and intersection are
// monotone, so flooring every leaf set and flooring the final result
// produce the same set — and keeps the per-probe cost proportional to
// the matches, not the document's split count. The caller re-applies
// the node test and the full predicate list to whatever is returned,
// so enumeration only has to be a superset, never exact.
func (d *Doc) Candidates(scope *dom.Node, sel Sel, orSelf bool) (nodes []*dom.Node, ok bool) {
	if !d.fresh() {
		return nil, false
	}
	r, lo, hi, okR := d.rangeOf(scope)
	if !okR {
		return nil, false
	}
	// Covering window: every token overlapping the scope's range,
	// clipped edge tokens included (their pieces belong to descendants).
	cl := sort.Search(len(d.tokEnd), func(i int) bool { return d.tokEnd[i] > r.start })
	ch := sort.Search(len(d.tokStart), func(i int) bool { return d.tokStart[i] >= r.end })
	set, known := d.candSet(scope, cl, ch, orSelf, sel)
	if !known {
		return nil, false
	}
	hits.Add(1)
	i := sort.Search(len(d.floor), func(i int) bool { return d.floor[i].pre >= lo })
	j := sort.Search(len(d.floor), func(j int) bool { return d.floor[j].pre > hi })
	nodes = make([]*dom.Node, 0, len(set)+j-i)
	mergeCands(set, d.floor[i:j], func(c cand) {
		if c.n != scope || orSelf {
			nodes = append(nodes, c.n)
		}
	})
	return nodes, true
}

// cand is one candidate node with its pre label. A candidate set is a
// slice of them in label order without repeats: ftand is a binary
// search, ftor a merge, and the answer comes out in document order.
type cand struct {
	pre uint32
	n   *dom.Node
}

// sortCands puts a candidate list in label order and drops repeats.
func sortCands(cs []cand) []cand {
	slices.SortFunc(cs, func(a, b cand) int { return cmp.Compare(a.pre, b.pre) })
	return slices.CompactFunc(cs, func(a, b cand) bool { return a.pre == b.pre })
}

// mergeCands calls emit with every candidate of a or b, in label
// order, once.
func mergeCands(a, b []cand, emit func(cand)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i].pre < b[j].pre:
			emit(a[i])
			i++
		case i == len(a) || b[j].pre < a[i].pre:
			emit(b[j])
			j++
		default:
			emit(a[i])
			i++
			j++
		}
	}
}

// unionCands returns the candidates in a or b, in a new slice.
func unionCands(a, b []cand) []cand {
	out := make([]cand, 0, len(a)+len(b))
	mergeCands(a, b, func(c cand) { out = append(out, c) })
	return out
}

// intersectCands returns the candidates in both a and b.
func intersectCands(a, b []cand) []cand {
	var out []cand
	for _, c := range a {
		if _, in := slices.BinarySearchFunc(b, c.pre, func(x cand, p uint32) int { return cmp.Compare(x.pre, p) }); in {
			out = append(out, c)
		}
	}
	return out
}

// tokenTextNodes returns the text nodes whose characters token p draws
// from (one for ordinary tokens, several for split tokens).
func (d *Doc) tokenTextNodes(p int) []*dom.Node {
	s, e := d.tokStart[p], d.tokEnd[p]
	// First text node covering offset s: the last entry with start <= s
	// and end > s (empty text nodes share starts with their successor).
	j := sort.Search(len(d.textStarts), func(k int) bool { return d.textStarts[k] > s }) - 1
	var out []*dom.Node
	for ; j >= 0 && j < len(d.textNodes); j++ {
		if d.textEnds[j] <= s {
			continue
		}
		if d.textStarts[j] >= e {
			break
		}
		if d.textEnds[j] > d.textStarts[j] { // skip empties
			out = append(out, d.textNodes[j])
		}
	}
	return out
}

// ancestorsInto appends to out the chain from tn up to scope (tn
// itself included, scope included only when orSelf) — but only when tn
// actually sits inside scope's subtree, which clips edge-token chains
// that start outside it.
func ancestorsInto(out []cand, tn, scope *dom.Node, orSelf bool) []cand {
	chain := len(out)
	cur := tn
	for cur != nil && cur != scope {
		out = append(out, cand{n: cur})
		cur = cur.Parent()
	}
	if cur != scope {
		return out[:chain]
	}
	if orSelf {
		out = append(out, cand{n: scope})
	}
	for i := chain; i < len(out); i++ {
		out[i].pre = pre(out[i].n)
	}
	return out
}

// candSet evaluates the selection to a candidate set. known is false
// when the set cannot be bounded (ftnot, or an unknown side of an
// ftor).
func (d *Doc) candSet(scope *dom.Node, cl, ch int, orSelf bool, sel Sel) ([]cand, bool) {
	switch x := sel.(type) {
	case Words:
		if x.All {
			// Every phrase must match and each phrase needs all its
			// words: intersect over every word of every phrase.
			var acc []cand
			first := true
			for _, p := range x.Phrases {
				words := fulltext.QueryWords(p, x.Opts)
				if len(words) == 0 {
					return nil, true
				}
				for _, w := range words {
					s := d.wordCand(scope, cl, ch, orSelf, w, x.Opts)
					if first {
						acc, first = s, false
					} else {
						acc = intersectCands(acc, s)
					}
					if len(acc) == 0 {
						return nil, true
					}
				}
			}
			return acc, true
		}
		// Any mode: a node matching some phrase contains that phrase's
		// first word — union the first-word sets.
		var acc []cand
		for _, p := range x.Phrases {
			if words := fulltext.QueryWords(p, x.Opts); len(words) > 0 {
				acc = unionCands(acc, d.wordCand(scope, cl, ch, orSelf, words[0], x.Opts))
			}
		}
		return acc, true
	case And:
		l, okL := d.candSet(scope, cl, ch, orSelf, x.L)
		r, okR := d.candSet(scope, cl, ch, orSelf, x.R)
		switch {
		case okL && okR:
			return intersectCands(l, r), true
		case okL:
			return l, true
		case okR:
			return r, true
		default:
			return nil, false
		}
	case Or:
		l, okL := d.candSet(scope, cl, ch, orSelf, x.L)
		r, okR := d.candSet(scope, cl, ch, orSelf, x.R)
		if !okL || !okR {
			return nil, false
		}
		return unionCands(l, r), true
	default: // Not
		return nil, false
	}
}

// wordCand returns the nodes whose subtree contains a token matching
// w, as ancestor chains of the matching positions. The split-token
// floor is not seeded here — Candidates unions it once over the final
// set, which is equivalent (see the proof sketch there) and cheaper.
func (d *Doc) wordCand(scope *dom.Node, cl, ch int, orSelf bool, w string, o fulltext.Options) []cand {
	var out []cand
	d.eachWordPos(cl, ch, w, o, func(p int) bool {
		for _, tn := range d.tokenTextNodes(p) {
			out = ancestorsInto(out, tn, scope, orSelf)
		}
		return false
	})
	return sortCands(out)
}

// Score computes node n's TF-IDF score for the query terms from the
// index: window term frequencies (or a local re-tokenization when the
// window has clipped edges) against document-wide posting counts —
// the same quantities, in the same order, as the scan side's
// ScoreTokens. ok is false when the index cannot answer for this node
// at all (stale, or unindexed node kind).
func (d *Doc) Score(n *dom.Node, terms []Term) (float64, bool) {
	r, _, _, okR := d.rangeOf(n)
	if !okR {
		return 0, false
	}
	lo, hi, dirty := d.window(r)
	var localToks []string
	if dirty {
		localToks = fulltext.Tokenize(d.text[r.start:r.end])
	}
	total := len(d.tokStart)
	score := 0.0
	for _, t := range terms {
		tf := 0
		if dirty {
			m := fulltext.WordMatcher(t.Word, t.Opts)
			for _, tok := range localToks {
				if m(tok) {
					tf++
				}
			}
		} else {
			d.eachWordPos(lo, hi, t.Word, t.Opts, func(int) bool { tf++; return false })
		}
		if tf == 0 {
			continue
		}
		idf := math.Log(1 + float64(total)/float64(1+d.docCount(t)))
		score += float64(tf) * idf
	}
	hits.Add(1)
	return score, true
}

// docCount returns a term's document-wide occurrence count (cf in the
// scoring formula). Callers hold the freshness check guarding the
// postings.
func (d *Doc) docCount(t Term) int {
	n := 0
	d.eachWordPos(0, len(d.tokStart), t.Word, t.Opts, func(int) bool { n++; return false })
	return n
}
