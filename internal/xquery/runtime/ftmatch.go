package runtime

import (
	"sync"

	"repro/internal/dom"
	"repro/internal/fulltext"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
)

// This file is the runtime's full-text evaluation path: ftcontains
// resolved once per evaluation into an ftindex.Sel (word sources are
// ordinary expressions), then matched per item either through the
// per-document full-text index (internal/fulltext/index) or by
// tokenizing the item and scanning — with Context.NoIndex forcing the
// scan, which is the differential oracle's baseline. Matches record a
// TF-IDF score per node so ft:score can order results; the score is
// computed from the same quantities on both paths, which keeps indexed
// and scan-only runs byte-identical. A run records scores only where it
// can read them (Run.scores): elsewhere — a shipped per-document
// expression, say — a match costs its one tokenization and no score.

// ftState is a run's full-text state, kept in its memo: the scores
// ftcontains recorded for matched nodes, and the scan side's memoized
// per-document token statistics (the index answers the same statistics
// from its postings). A behind call reads its caller's (detach), on
// another goroutine, hence the lock.
type ftState struct {
	mu     sync.Mutex
	scores map[*dom.Node]float64
	stats  map[*dom.Node]*ftDocStats
}

func (s *ftState) setScore(n *dom.Node, v float64) {
	s.mu.Lock()
	if s.scores == nil {
		s.scores = map[*dom.Node]float64{}
	}
	s.scores[n] = v
	s.mu.Unlock()
}

// FTScoreFor returns the TF-IDF score the most recent matching
// ftcontains evaluation recorded for n, or 0 — the value of
// ft:score($n).
func (ctx *Context) FTScoreFor(n *dom.Node) float64 {
	if ctx.memo == nil || ctx.memo.ft == nil {
		return 0
	}
	s := ctx.memo.ft
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scores[n]
}

// ftDocStats caches one document's scan-side scoring statistics: the
// full token stream and per-term occurrence counts, valid for one tree
// version.
type ftDocStats struct {
	version uint64
	mu      sync.Mutex
	tokens  []string
	counts  map[string]int
}

// docStats returns the scan-side statistics for root's tree,
// tokenizing the document once per version.
func (s *ftState) docStats(root *dom.Node) *ftDocStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats == nil {
		s.stats = map[*dom.Node]*ftDocStats{}
	}
	st := s.stats[root]
	if v := root.Version(); st == nil || st.version != v {
		st = &ftDocStats{
			version: v,
			tokens:  fulltext.Tokenize(root.StringValue()),
			counts:  map[string]int{},
		}
		s.stats[root] = st
	}
	return st
}

// count answers a term's document-wide occurrence count, memoized.
func (st *ftDocStats) count(t ftindex.Term) int {
	key := termKey(t)
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok := st.counts[key]; ok {
		return c
	}
	m := fulltext.WordMatcher(t.Word, t.Opts)
	c := 0
	for _, tok := range st.tokens {
		if m(tok) {
			c++
		}
	}
	st.counts[key] = c
	return c
}

// termKey folds a term's options into its memoization key.
func termKey(t ftindex.Term) string {
	b := byte('0')
	if t.Opts.Stemming {
		b |= 1
	}
	if t.Opts.CaseSensitive {
		b |= 2
	}
	if t.Opts.Wildcards {
		b |= 4
	}
	return string(b) + "\x00" + t.Word
}

// resolveFTSelection evaluates a selection's word sources into the
// AST-free form the index and the scan matcher share. Sources are
// evaluated eagerly — before any matching, on both paths — so indexed
// and scan-only runs surface exactly the same errors.
func (ctx *Context) resolveFTSelection(sel ast.FTSelection) (ftindex.Sel, error) {
	return plan.ResolveFTSelection(sel, ctx.ftPhrases)
}

// ftPhrases evaluates a word source into its phrases.
func (ctx *Context) ftPhrases(src ast.Expr) ([]string, error) {
	seq, err := ctx.Eval(src)
	if err != nil {
		return nil, err
	}
	phrases := make([]string, len(seq))
	for i, it := range seq {
		phrases[i] = xdm.Atomize(it).String()
	}
	return phrases, nil
}

// ftMatchItem matches one item against a resolved selection: through
// the full-text index when the item is a node the index can answer
// for, otherwise by tokenizing and scanning. Matching nodes get their
// TF-IDF score recorded for ft:score, in a run that can read it.
func (ctx *Context) ftMatchItem(it xdm.Item, sel ftindex.Sel) bool {
	n, isNode := xdm.IsNode(it)
	if isNode && !ctx.NoIndex {
		if idx, built := readIndex(ctx, n, ftindex.Probe, ftindex.Fresh); idx != nil {
			if built && ctx.Profiler != nil {
				ctx.Profiler.AddFT("builds", 1)
			}
			if m, ok := idx.Match(n, sel); ok {
				if ctx.Profiler != nil {
					ctx.Profiler.AddFT("probes", 1)
				}
				if m && ctx.scores {
					ctx.recordScoreIndexed(idx, n, sel)
				}
				return m
			}
		}
	}
	tokens := fulltext.Tokenize(xdm.Atomize(it).String())
	m := ftindex.MatchTokens(tokens, sel)
	if m && isNode && ctx.scores {
		ctx.recordScoreScan(n, tokens, sel)
	}
	return m
}

// recordScoreIndexed scores a matched node from the index, falling
// back to the scan computation if the index went stale between the
// match and the score.
func (ctx *Context) recordScoreIndexed(idx *ftindex.Doc, n *dom.Node, sel ftindex.Sel) {
	ft := ctx.memo.fullText()
	if ft == nil {
		return
	}
	if sc, ok := idx.Score(n, ftindex.ScoreTerms(sel)); ok {
		ft.setScore(n, sc)
		return
	}
	ctx.recordScoreScan(n, fulltext.Tokenize(n.StringValue()), sel)
}

// recordScoreScan scores a matched node from its own token list and
// the memoized document statistics — the identical formula, in the
// identical term order, as the index's Score.
func (ctx *Context) recordScoreScan(n *dom.Node, nodeTokens []string, sel ftindex.Sel) {
	ft := ctx.memo.fullText()
	if ft == nil {
		return
	}
	st := ft.docStats(n.Root())
	ft.setScore(n, ftindex.ScoreTokens(nodeTokens, len(st.tokens), ftindex.ScoreTerms(sel), st.count))
}
