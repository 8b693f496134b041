package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The generators. Every input the program under test sees comes from
// here, and every answer the workloads check comes from the models kept
// beside the inputs — never from the engine.

// Corpus shape: the Reference 2.0 hierarchy (internal/apps) at 8
// journals × 4 volumes × 4 issues × 4 articles = 512 articles, 40
// references each.
const (
	nJournals   = 8
	nVolumes    = 4
	nIssues     = 4
	nPerIssue   = 4
	perJournal  = nVolumes * nIssues * nPerIssue
	nArticles   = nJournals * perJournal
	refsPerDoc  = 40
	firstYear   = 1985
	nYears      = 24
	vocabSize   = 64
	wordsPerDoc = 12
)

// article is the harness's model of one stored document. xml renders
// the exact bytes the store must hold for it: the generator writes the
// serializer's canonical form, so a document hash needs no parse.
type article struct {
	ID      string
	Journal int // 1-based
	Issue   string
	Title   string
	Year    int
	Words   []string // vocabulary words in the abstract, in text order
	Refs    []int    // reference years
}

func (a *article) xml() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<article id="%s" journal="j%d" year="%d"><title>%s</title><abstract>%s</abstract><references>`,
		a.ID, a.Journal, a.Year, a.Title, a.abstract())
	for k, y := range a.Refs {
		fmt.Fprintf(&b, `<ref year="%d" title="Ref %d of %s"/>`, y, k, a.ID)
	}
	b.WriteString(`</references></article>`)
	return b.String()
}

// abstract is the article's abstract text. It opens with filler so that
// no vocabulary word abuts the title's text (an element boundary is not
// a token boundary); filler tokens contain digits, vocabulary words
// never do.
func (a *article) abstract() string {
	var b strings.Builder
	b.WriteString("summary0")
	for i, w := range a.Words {
		fmt.Fprintf(&b, " %s note%d of%d", w, i, a.Journal)
	}
	return b.String()
}

func (a *article) hasWord(w string) bool {
	for _, x := range a.Words {
		if x == w {
			return true
		}
	}
	return false
}

func (a *article) refsIn(year int) int {
	n := 0
	for _, y := range a.Refs {
		if y == year {
			n++
		}
	}
	return n
}

// clone copies the model so a write workload can mutate its own view.
func (a *article) clone() *article {
	c := *a
	c.Words = append([]string(nil), a.Words...)
	c.Refs = append([]int(nil), a.Refs...)
	return &c
}

// storeURI is the article's URI in the hierarchical store layout;
// flatURI is the one the Reference 2.0 client page fetches.
func (a *article) storeURI() string {
	return fmt.Sprintf("/db/articles/j%d/%s.xml", a.Journal, a.ID)
}
func (a *article) flatURI() string { return "articles/" + a.ID + ".xml" }

func journalCollection(j int) string { return fmt.Sprintf("/db/articles/j%d", j) }

type corpus struct {
	Articles []*article // catalog order, which is also URI order within a journal
	Vocab    []string
}

// genCorpus builds the corpus for a seed.
func genCorpus(seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{Vocab: genVocab(rng, vocabSize)}
	for j := 1; j <= nJournals; j++ {
		for v := 1; v <= nVolumes; v++ {
			for i := 1; i <= nIssues; i++ {
				issue := fmt.Sprintf("j%dv%di%d", j, v, i)
				for n := 1; n <= nPerIssue; n++ {
					a := &article{
						ID:      fmt.Sprintf("%sa%d", issue, n),
						Journal: j,
						Issue:   issue,
						Title:   fmt.Sprintf("On Topic %d.%d.%d.%d", j, v, i, n),
					}
					c.Articles = append(c.Articles, a)
					fillArticle(rng, c.Vocab, a)
				}
			}
		}
	}
	return c
}

// fillArticle draws an article's mutable content: year, abstract words
// and reference years. The write workload calls it again to make the
// next version of a document.
func fillArticle(rng *rand.Rand, vocab []string, a *article) {
	a.Year = firstYear + rng.Intn(nYears)
	a.Words = a.Words[:0]
	for _, k := range rng.Perm(len(vocab))[:wordsPerDoc] {
		a.Words = append(a.Words, vocab[k])
	}
	a.Refs = a.Refs[:0]
	for k := 0; k < refsPerDoc; k++ {
		a.Refs = append(a.Refs, firstYear+rng.Intn(nYears))
	}
}

// genVocab makes n distinct pronounceable pseudo-words. They are
// lower-case, purely alphabetic and of one length, so neither case
// folding nor tokenization can merge two of them.
func genVocab(rng *rand.Rand, n int) []string {
	const cons, vows = "bdfgklmnprstvz", "aeiou"
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		var b [6]byte
		for i := 0; i < 6; i += 2 {
			b[i] = cons[rng.Intn(len(cons))]
			b[i+1] = vows[rng.Intn(len(vows))]
		}
		if w := string(b[:]); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (c *corpus) journal(j int) []*article {
	return c.Articles[(j-1)*perJournal : j*perJournal]
}

// catalogXML is the Reference 2.0 catalog document over the corpus.
func (c *corpus) catalogXML() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	k := 0
	for j := 1; j <= nJournals; j++ {
		fmt.Fprintf(&b, `<journal id="j%d" title="Journal %d">`, j, j)
		for v := 1; v <= nVolumes; v++ {
			fmt.Fprintf(&b, `<volume id="j%dv%d" n="%d">`, j, v, v)
			for i := 1; i <= nIssues; i++ {
				fmt.Fprintf(&b, `<issue id="j%dv%di%d" n="%d">`, j, v, i, i)
				for n := 0; n < nPerIssue; n++ {
					a := c.Articles[k]
					k++
					fmt.Fprintf(&b, `<article id="%s" title="%s"/>`, a.ID, a.Title)
				}
				b.WriteString("</issue>")
			}
			b.WriteString("</volume>")
		}
		b.WriteString("</journal>")
	}
	b.WriteString("</catalog>")
	return b.String()
}

// productsXML is the shopping cart's products database with n products
// named p000, p001, ...
func productsXML(n int) string {
	var b strings.Builder
	b.WriteString("<products>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<product><name>%s</name><price>%d</price></product>", productName(i), 10+i)
	}
	b.WriteString("</products>")
	return b.String()
}

func productName(i int) string { return "p" + fmt.Sprintf("%03d", i) }

// --- seeded choice ---------------------------------------------------------------

// mix deals op classes in fixed proportions. Each client draws from a
// deck of 100 cards of its own, shuffled by its generator and reshuffled
// when it runs out, so any hundred consecutive ops of a client hold
// exactly the stated shares: independent draws would let one window's
// mix of cheap and dear ops differ from the next's.
type mix struct {
	names []string
	cards []uint8
}

func newMix(pairs ...any) *mix {
	m := &mix{}
	for i := 0; i < len(pairs); i += 2 {
		for k := 0; k < pairs[i+1].(int); k++ {
			m.cards = append(m.cards, uint8(len(m.names)))
		}
		m.names = append(m.names, pairs[i].(string))
	}
	if len(m.cards) != 100 {
		panic("bench: mix weights must sum to 100, got " + strconv.Itoa(len(m.cards)))
	}
	return m
}

func (m *mix) next(c *client) int {
	if c.dealt == len(c.deck) {
		if c.deck == nil {
			c.deck = append([]uint8(nil), m.cards...)
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		c.dealt = 0
	}
	c.dealt++
	return int(c.deck[c.dealt-1])
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution (math/rand's Zipf needs s > 1 and an offset;
// this one is exact for any s > 0 and small n).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) pick(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// clientRNG derives a client's generator from the run seed, so each
// client's op stream is a function of (seed, client) alone.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
}
