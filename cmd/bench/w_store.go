package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/markup"
	"repro/internal/serve"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// store_read and store_write: the same 512-article corpus in a durable
// store, read-only in one workload and written in the other, over the
// store's HTTP face and (for reads) a store-bound serving pool.

const (
	srDoc = iota
	srAdhoc
	srEval
)

const (
	swPut = iota
	swUpdate
	swBulk
)

// evalSources is how many distinct query texts the eval op draws from:
// four times the program cache's 256 entries.
const evalSources = 1024

var storeReadWorkload = &workload{
	name: "store_read",
	why: "reads on immutable documents: compile cost, index hits, full-text probes, serialize and wire " +
		"dominate; no PUL and no WAL, and the indexes event_loop uses under mutation are used read-only",
	tailPct: 99,
	classes: []string{"doc", "adhoc", "eval"},
	warmOps: 1200,
	setup:   setupStoreRead,
}

var storeWriteWorkload = &workload{
	name: "store_write",
	why: "the write use of xmldb, wal, markup and xquery/update beside store_read's read use, under the " +
		"product's default flush policy (fsync per commit) and a checkpoint every 2048 commits",
	tailPct: 99,
	classes: []string{"put", "update", "bulk"},
	warmOps: 100,
	setup:   setupStoreWrite,
}

// storeBase is what both store workloads share.
type storeBase struct {
	corpus *corpus
	dir    string
	store  *xmldb.Store
	srv    *httptest.Server
	http   *httpStats
	https  []*http.Client
}

func openStoreBase(e *env, opts ...xmldb.Option) (*storeBase, error) {
	b := &storeBase{
		corpus: genCorpus(e.seed),
		dir:    filepath.Join(e.dir, "store"),
		http:   newHTTPStats(e.tracers(), "doc", "put", "adhoc", "update", "bulk"),
	}
	st, err := xmldb.Open(b.dir, opts...)
	if err != nil {
		return nil, err
	}
	b.store = st
	for j := 1; j <= nJournals; j++ {
		if err := st.CreateCollection(journalCollection(j)); err != nil {
			b.release()
			return nil, err
		}
	}
	if err := st.PutXML("/db/catalog.xml", b.corpus.catalogXML()); err != nil {
		b.release()
		return nil, err
	}
	for _, a := range b.corpus.Articles {
		if err := st.PutXML(a.storeURI(), a.xml()); err != nil {
			b.release()
			return nil, err
		}
	}
	b.srv = httptest.NewServer(b.http.handler(st.Handler()))
	for range e.clients {
		b.https = append(b.https, b.http.client())
	}
	return b, nil
}

func (b *storeBase) release() error {
	for _, hc := range b.https {
		closeIdle(hc)
	}
	if b.srv != nil {
		b.srv.Close()
	}
	return b.store.Close()
}

// call sends one request to the store's HTTP face, tagged with its op
// class, and returns the body of a 2xx reply.
func (b *storeBase) call(c *client, class, method, route string, q url.Values, body string) (string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, b.srv.URL+route+"?"+q.Encode(), rd)
	if err != nil {
		return "", err
	}
	req.Header.Set(opClassHeader, class)
	id := c.tr.begin("xmldb.http")
	resp, err := b.https[c.idx].Do(req)
	if err != nil {
		c.tr.end(id)
		return "", err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(id)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("%s %s: %s: %s", method, route, resp.Status, strings.TrimSpace(string(out)))
	}
	return string(out), nil
}

// --- store_read ------------------------------------------------------------------

// evalSource is one query text with the answer the corpus model gives.
type evalSource struct {
	q    string
	want []string // sorted: a collection's document order is not the harness's to fix
	doc  *article // a document the query reads, for the index replays
	ft   bool
}

type storeRead struct {
	*storeBase
	pool  *serve.Pool
	mix   *mix
	docs  []string // each article's bytes, by corpus position
	texts []evalSource
	zipf  *zipf
	adhoc *xquery.Engine // replays compile ad hoc queries the way the store does: a plain engine
}

func setupStoreRead(e *env) (state, error) {
	b, err := openStoreBase(e)
	if err != nil {
		return nil, err
	}
	s := &storeRead{
		storeBase: b,
		pool:      serve.NewPool(serve.Config{Store: b.store}),
		mix:       newMix("doc", 30, "adhoc", 30, "eval", 40),
		texts:     genEvalSources(b.corpus, e.seed),
		zipf:      newZipf(evalSources, 1.1),
		adhoc:     xquery.New(),
	}
	for _, a := range b.corpus.Articles {
		s.docs = append(s.docs, a.xml())
	}
	// One full-text probe and one scan per journal builds every lazy
	// index before the first window, whatever the draw order.
	for j := 1; j <= nJournals; j++ {
		q := fmt.Sprintf(`count(collection("%s")/article[. ftcontains "%s"]) + count(collection("%s")//ref)`,
			journalCollection(j), b.corpus.Vocab[0], journalCollection(j))
		if _, err := s.pool.Eval(e.clients[0].ctx, q, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// genEvalSources builds the evalSources distinct query texts: FLWORs
// and joins over a journal's collection, ftcontains filters and doc()
// paths, each with its parameters inlined. The result is in Zipf rank
// order: the seed decides which parameters get a rank, while the four
// shapes alternate down the ranks in proportion to their numbers, so
// the head of the distribution costs the same under every seed.
func genEvalSources(c *corpus, seed int64) []evalSource {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var shapes [4][]evalSource
	for j := 1; j <= nJournals; j++ {
		col := journalCollection(j)
		docs := c.journal(j)
		for y := firstYear; y < firstYear+nYears; y++ { // 8 × 24 where-filtered FLWORs
			src := evalSource{doc: docs[0], q: fmt.Sprintf(
				`for $a in collection("%s")/article where $a/@year = "%d" return string($a/@id)`, col, y)}
			for _, a := range docs {
				if a.Year == y {
					src.want = append(src.want, a.ID)
				}
			}
			shapes[0] = append(shapes[0], src)
		}
		for i := 0; i < 24; i++ { // 8 × 24 joins of one issue's catalog entries with the collection
			// 16 issues under one query text, then the first 8 again
			// under a second text with another projection.
			issue := docs[i%(nVolumes*nIssues)*nPerIssue].Issue
			second := i >= nVolumes*nIssues
			proj := `concat($c/@title, " ", $a/@year)`
			if second {
				proj = `concat($a/@year, " ", $c/@id)`
			}
			src := evalSource{doc: docs[0], q: fmt.Sprintf(
				`for $c in doc("/db/catalog.xml")//issue[@id = "%s"]/article, $a in collection("%s")/article where $a/@id = $c/@id return %s`,
				issue, col, proj)}
			for _, a := range docs {
				switch {
				case a.Issue != issue:
				case second:
					src.want = append(src.want, fmt.Sprintf("%d %s", a.Year, a.ID))
				default:
					src.want = append(src.want, fmt.Sprintf("%s %d", a.Title, a.Year))
				}
			}
			shapes[1] = append(shapes[1], src)
		}
		for i := 0; i < 30; i++ { // 8 × 30 full-text filters
			w := c.Vocab[(j*7+i)%len(c.Vocab)]
			src := evalSource{doc: docs[0], ft: true, q: fmt.Sprintf(
				`for $a in collection("%s")/article[. ftcontains "%s"] return string($a/@id)`, col, w)}
			for _, a := range docs {
				if a.hasWord(w) {
					src.want = append(src.want, a.ID)
				}
			}
			shapes[2] = append(shapes[2], src)
		}
	}
	seen := map[string]bool{}
	for len(shapes[0])+len(shapes[1])+len(shapes[2])+len(shapes[3]) < evalSources { // the rest: doc() paths counting one article's references of one year
		a := c.Articles[rng.Intn(nArticles)]
		y := firstYear + rng.Intn(nYears)
		q := fmt.Sprintf(`count(doc("%s")/article/references/ref[@year = "%d"])`, a.storeURI(), y)
		if !seen[q] {
			seen[q] = true
			shapes[3] = append(shapes[3], evalSource{doc: a, q: q, want: []string{fmt.Sprint(a.refsIn(y))}})
		}
	}
	// Deal the ranks: always from the shape with the largest share of
	// its texts still to place.
	var out []evalSource
	var placed [4]int
	for k := range shapes {
		sh := shapes[k]
		rng.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
	}
	for len(out) < evalSources {
		best := 0
		for k := range shapes {
			if (len(shapes[k])-placed[k])*len(shapes[best]) > (len(shapes[best])-placed[best])*len(shapes[k]) {
				best = k
			}
		}
		src := shapes[best][placed[best]]
		placed[best]++
		sort.Strings(src.want)
		out = append(out, src)
	}
	return out
}

func (s *storeRead) sources() sources {
	return sources{pool: s.pool, store: s.store, http: s.http}
}

func (s *storeRead) close() (int, error) {
	err := s.pool.Shutdown(nil)
	if rerr := s.release(); err == nil {
		err = rerr
	}
	return 0, err
}

func (s *storeRead) op(c *client) (int, error) {
	class := s.mix.next(c)
	switch class {
	case srDoc:
		i := c.rng.Intn(nArticles)
		a := s.corpus.Articles[i]
		got, err := s.call(c, "doc", http.MethodGet, "/doc", url.Values{"uri": {a.storeURI()}}, "")
		if err != nil {
			return class, err
		}
		if got != s.docs[i] {
			return class, fmt.Errorf("doc %s: body differs from the generated document", a.ID)
		}
		if c.replay {
			if d, ok := s.store.Get(a.storeURI()); ok {
				replaySerialize(c.tr, d, false)
			}
		}
	case srAdhoc:
		// The id and the year are part of the query text, so the store
		// compiles every request.
		a := s.corpus.Articles[c.rng.Intn(nArticles)]
		y := firstYear + c.rng.Intn(nYears)
		q := fmt.Sprintf(`concat("%s", ":", count(/article[@id = "%s"]/references/ref[@year = "%d"]))`, a.ID, a.ID, y)
		got, err := s.call(c, "adhoc", http.MethodGet, "/query", url.Values{"uri": {a.storeURI()}, "q": {q}}, "")
		if err != nil {
			return class, err
		}
		if want := fmt.Sprintf("<result>%s:%d</result>", a.ID, a.refsIn(y)); got != want {
			return class, fmt.Errorf("adhoc: got %q, want %q", got, want)
		}
		if c.replay {
			replayCompile(c.tr, s.adhoc, q)
		}
	default:
		src := &s.texts[s.zipf.pick(c.rng)]
		id := c.tr.begin("pool.eval")
		seq, err := s.pool.Eval(c.ctx, src.q, nil)
		c.tr.end(id)
		if err != nil {
			return class, err
		}
		if err := sameStrings(seq, src.want); err != nil {
			return class, fmt.Errorf("eval %s: %w", src.q, err)
		}
		if c.replay {
			replayCompile(c.tr, s.pool.Engine(), src.q)
			if d, ok := s.store.Get(src.doc.storeURI()); ok {
				replayIndexBuild(c.tr, d)
				if src.ft {
					replayFTBuild(c.tr, d)
				}
			}
		}
	}
	return class, nil
}

// sameStrings checks a query result against the model's answer as a
// multiset of strings.
func sameStrings(seq xdm.Sequence, want []string) error {
	if len(seq) != len(want) {
		return fmt.Errorf("got %d items, want %d", len(seq), len(want))
	}
	got := make([]string, len(seq))
	for i, it := range seq {
		got[i] = it.String()
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("got %q, want %q", got[i], want[i])
		}
	}
	return nil
}

// --- store_write -----------------------------------------------------------------

// checkpointEvery is store_write's checkpoint cadence in commits: short
// enough that several snapshot-and-truncate cycles complete in a run.
const checkpointEvery = 2048

type storeWrite struct {
	*storeBase
	mix   *mix
	wal   *walWatch
	owned [][]*article // per client: its own copies of the articles it alone writes
	edits []int        // per client: a counter that makes each update's text new
	adhoc *xquery.Engine
}

func setupStoreWrite(e *env) (state, error) {
	b, err := openStoreBase(e, xmldb.WithSyncWrites(true), xmldb.WithCheckpointEvery(checkpointEvery))
	if err != nil {
		return nil, err
	}
	s := &storeWrite{
		storeBase: b,
		mix:       newMix("put", 50, "update", 40, "bulk", 10),
		wal:       &walWatch{path: filepath.Join(b.dir, "store.wal")},
		owned:     make([][]*article, len(e.clients)),
		edits:     make([]int, len(e.clients)),
		adhoc:     xquery.New(),
	}
	// Disjoint URI ranges: article i belongs to client i mod clients, so
	// no two clients ever write one document and no commit conflicts.
	for i, a := range b.corpus.Articles {
		k := i % len(e.clients)
		s.owned[k] = append(s.owned[k], a.clone())
	}
	s.wal.observe()
	return s, nil
}

func (s *storeWrite) sources() sources {
	return sources{store: s.store, http: s.http, wal: s.wal}
}

func (s *storeWrite) op(c *client) (int, error) {
	class := s.mix.next(c)
	mine := s.owned[c.idx]
	a := mine[c.rng.Intn(len(mine))]
	next := a.clone()
	uri := url.Values{"uri": {a.storeURI()}}
	var err error
	var q string
	switch class {
	case swPut:
		fillArticle(c.rng, s.corpus.Vocab, next)
		_, err = s.call(c, "put", http.MethodPut, "/doc", uri, next.xml())
	case swUpdate:
		s.edits[c.idx]++
		next.Title = fmt.Sprintf("Revision %d of %s", s.edits[c.idx], a.ID)
		q = fmt.Sprintf(`replace value of node /article/title with "%s"`, next.Title)
		uri.Set("q", q)
		_, err = s.call(c, "update", http.MethodGet, "/query", uri, "")
	default:
		y := firstYear + c.rng.Intn(nYears)
		for i := range next.Refs {
			next.Refs[i] = y
		}
		q = fmt.Sprintf(`for $r in /article/references/ref return replace value of node $r/@year with "%d"`, y)
		uri.Set("q", q)
		_, err = s.call(c, "bulk", http.MethodGet, "/query", uri, "")
	}
	if err != nil {
		return class, err // not acknowledged: the model keeps the old version
	}
	*a = *next
	body := a.xml()
	s.wal.userBytes.Add(int64(len(body)))
	s.wal.observe()
	if c.replay {
		if class == swPut {
			replayParse(c.tr, body)
		} else {
			replayCompile(c.tr, s.adhoc, q)
		}
		if d, ok := s.store.Get(a.storeURI()); ok {
			replaySerialize(c.tr, d, false) // every commit serializes the document into its redo record
		}
	}
	return class, nil
}

// close shuts the store, reopens its directory and compares every
// document with the model of acknowledged writes.
func (s *storeWrite) close() (int, error) {
	if err := s.release(); err != nil {
		return 0, err
	}
	re, err := xmldb.Open(s.dir)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer re.Close()
	bad := 0
	for _, mine := range s.owned {
		for _, a := range mine {
			d, ok := re.Get(a.storeURI())
			if !ok || markup.Serialize(d) != a.xml() {
				bad++
			}
		}
	}
	return bad, nil
}
