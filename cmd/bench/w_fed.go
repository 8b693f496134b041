package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"

	"repro/internal/fed"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xdm"
	"repro/internal/xmldb"
)

// fed_collection: the corpus split over 4 shard groups × 2 replicas of
// the stock shard module, queried through a pool whose fn:collection
// scatter-gathers over them under the product's default fed.Config.

const (
	fcWhere = iota
	fcAggregate
	fcFTFilter
)

const (
	fedShards   = 4
	fedReplicas = 2
)

var fedCollectionWorkload = &workload{
	name: "fed_collection",
	why: "fed scatter and merge, rest encode/decode and markup parse of the wire payload dominate, compile is " +
		"bypassed (all cache hits); the slowest of 4 shards sets the latency; only here can pushdown show",
	// An op ships a whole journal (64 documents) and takes tens of
	// milliseconds, so a run holds 500 to 1,000 ops: on a slow host p99
	// would have fewer than ten samples beyond it, and p90 is the
	// steadier of the two levels below that.
	tailPct: 90,
	classes: []string{"where", "aggregate", "ftfilter"},
	warmOps: 8,
	setup:   setupFedCollection,
}

type fedQuery struct {
	class   int
	q       string
	want    []string
	journal int
}

type fedCollection struct {
	corpus  *corpus
	pool    *serve.Pool
	http    *httpStats
	client  *http.Client
	shards  []*xmldb.Store
	servers []*httptest.Server
	queries []fedQuery
	next    []int // per client: the next query of its walk
}

func setupFedCollection(e *env) (_ state, err error) {
	s := &fedCollection{corpus: genCorpus(e.seed), http: newHTTPStats(e.tracers()), next: make([]int, len(e.clients))}
	s.client = s.http.client()
	defer func() {
		if err != nil {
			s.close() // release whatever the failed set-up had started
		}
	}()
	var groups [][]string
	for k := 0; k < fedShards; k++ {
		st, err := xmldb.Open("")
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, st)
		for j := 1; j <= nJournals; j++ {
			if err := st.CreateCollection(journalCollection(j)); err != nil {
				return nil, err
			}
		}
		// Article i lives on shard i mod 4: every journal has 16
		// documents on every shard.
		for i, a := range s.corpus.Articles {
			if i%fedShards != k {
				continue
			}
			if err := st.PutXML(a.storeURI(), a.xml()); err != nil {
				return nil, err
			}
		}
		var group []string
		for r := 0; r < fedReplicas; r++ {
			ms, err := rest.NewModuleServer(fed.ShardModule, nil)
			if err != nil {
				return nil, err
			}
			ms.Collections = st.CollectionResolver()
			ms.CollectionsIter = st.CollectionIterResolver()
			srv := httptest.NewServer(s.http.handler(ms.Handler()))
			s.servers = append(s.servers, srv)
			group = append(group, srv.URL)
		}
		groups = append(groups, group)
	}
	x, err := fed.New(fed.Config{Shards: groups, HTTP: s.client})
	if err != nil {
		return nil, err
	}
	s.pool = serve.NewPool(serve.Config{Fed: x})
	s.queries = genFedQueries(s.corpus)

	// Every query once, so that every op of every window is a program
	// cache hit. The clients share the pass between them.
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := c.idx; i < len(s.queries) && errs[c.idx] == nil; i += len(e.clients) {
				_, errs[c.idx] = s.pool.Eval(c.ctx, s.queries[i].q, nil)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// genFedQueries builds the 64 query texts, 8 per journal: three
// where-filtered FLWORs (which ship the whole collection to filter it
// at the mediator), two aggregates and three ftcontains filters.
func genFedQueries(c *corpus) []fedQuery {
	var out []fedQuery
	for j := 1; j <= nJournals; j++ {
		col, docs := journalCollection(j), c.journal(j)
		for i := 0; i < 3; i++ {
			y := docs[i].Year
			q := fedQuery{class: fcWhere, journal: j, q: fmt.Sprintf(
				`for $a in collection("%s")/article where $a/@year = "%d" return string($a/@id)`, col, y)}
			for _, a := range docs {
				if a.Year == y {
					q.want = append(q.want, a.ID)
				}
			}
			out = append(out, q)
		}
		for i := 0; i < 2; i++ {
			y := docs[3+i].Refs[0]
			n := 0
			for _, a := range docs {
				n += a.refsIn(y)
			}
			out = append(out, fedQuery{class: fcAggregate, journal: j, want: []string{fmt.Sprint(n)}, q: fmt.Sprintf(
				`count(collection("%s")/article/references/ref[@year = "%d"])`, col, y)})
		}
		for i := 0; i < 3; i++ {
			w := docs[5+i].Words[0]
			q := fedQuery{class: fcFTFilter, journal: j, q: fmt.Sprintf(
				`for $a in collection("%s")/article[. ftcontains "%s"] return string($a/@id)`, col, w)}
			for _, a := range docs {
				if a.hasWord(w) {
					q.want = append(q.want, a.ID)
				}
			}
			out = append(out, q)
		}
	}
	for i := range out {
		sort.Strings(out[i].want)
	}
	return out
}

func (s *fedCollection) sources() sources {
	return sources{pool: s.pool, http: s.http}
}

func (s *fedCollection) close() (int, error) {
	var err error
	if s.pool != nil {
		err = s.pool.Shutdown(nil)
	}
	closeIdle(s.client)
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, st := range s.shards {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return 0, err
}

func (s *fedCollection) op(c *client) (int, error) {
	// Each client walks the queries in order from its own random start:
	// with so few ops in a window, drawing them would make one window's
	// mix of cheap and dear queries differ from the next's.
	if c.ops == 1 {
		s.next[c.idx] = c.rng.Intn(len(s.queries))
	}
	q := &s.queries[s.next[c.idx]%len(s.queries)]
	s.next[c.idx]++
	id := c.tr.begin("pool.eval")
	seq, err := s.pool.Eval(c.ctx, q.q, nil)
	c.tr.end(id)
	if err != nil {
		return q.class, err
	}
	if err := sameStrings(seq, q.want); err != nil {
		return q.class, fmt.Errorf("%s: %w", q.q, err)
	}
	if c.replay {
		s.replay(c, q)
	}
	return q.class, nil
}

// replay re-runs what the wire costs on each side, once per shard as
// the op did: the shard encodes its share of the journal, the mediator
// decodes it, and inside the decode sits a markup parse of the payload.
func (s *fedCollection) replay(c *client, q *fedQuery) {
	for _, st := range s.shards {
		docs, err := st.Collection(journalCollection(q.journal))
		if err != nil || len(docs) == 0 {
			continue
		}
		seq := make(xdm.Sequence, len(docs))
		for i, d := range docs {
			seq[i] = xdm.NewNode(d)
		}
		var payload string
		c.tr.replay("rest.encode", func() int64 {
			payload = rest.EncodeSequence(seq)
			return int64(len(payload))
		})
		c.tr.replay("rest.decode", func() int64 {
			items, _ := rest.DecodeSequence(payload)
			return int64(len(items))
		})
		replayParse(c.tr, payload)
		if q.class == fcFTFilter {
			replayFTBuild(c.tr, docs[0])
		}
	}
}
