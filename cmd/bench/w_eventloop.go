package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xquery/runtime"
)

// event_loop: long-lived sessions, ops are browser events — the paper's
// core loop of event → listener → pending updates → next event.

const (
	evCart = iota
	evNav
	evTable
	evRender
)

const (
	cartProducts   = 300 // products on the cart page
	checkoutEvery  = 32  // buys between checkouts
	tableSize      = 12  // the multiplication table the table op regenerates
	navArticles    = 32  // articles a reader browses: fits the client's 64-document cache
	sessionsPerCli = 4   // cart, cart, nav, table
)

var eventLoopWorkload = &workload{
	name: "event_loop",
	why: "the paper's core loop: xquery/runtime eval, dom/index probe and build, xquery/update partition " +
		"and apply, and dom events dominate; no parse or compile after warm-up, no wire",
	tailPct: 99,
	classes: []string{"cart", "nav", "table", "render"},
	warmOps: 400,
	setup:   setupEventLoop,
}

// reader is one client's four sessions and the harness's model of them.
type reader struct {
	cart    [2]*serve.Session
	inCart  [2][]string // newest first, as the page shows them
	nextBuy int         // which cart session the next cart op uses
	nav     *serve.Session
	reads   []*article // the articles this reader browses
	table   *serve.Session
	turn    int // which session the next render op serializes
	rest    *rest.Client
	http    *http.Client
}

type eventLoop struct {
	corpus  *corpus
	pool    *serve.Pool
	http    *httpStats
	mix     *mix
	db      *httptest.Server
	readers []*reader
}

func setupEventLoop(e *env) (_ state, err error) {
	s := &eventLoop{
		corpus: genCorpus(e.seed),
		pool:   serve.NewPool(serve.Config{}),
		http:   newHTTPStats(e.tracers()),
		mix:    newMix("cart", 55, "nav", 25, "table", 15, "render", 5),
	}
	defer func() {
		if err != nil {
			s.close() // release whatever the failed set-up had started
		}
	}()
	cart, err := cartPage(cartProducts)
	if err != nil {
		return nil, err
	}
	cart = withCheckout(cart)
	db, err := refStore(s.corpus)
	if err != nil {
		return nil, err
	}
	s.db = httptest.NewServer(s.http.handler(db.Handler()))
	refPage, err := refClientPage(s.db.URL)
	if err != nil {
		return nil, err
	}

	for _, c := range e.clients {
		r := &reader{http: s.http.client()}
		r.rest = rest.NewClient(r.http)
		r.rest.EnableCache(true)
		s.readers = append(s.readers, r)
		for i := range r.cart {
			if r.cart[i], err = s.pool.Load(c.ctx, cart, "http://shop.example.com/cart"); err != nil {
				return nil, err
			}
		}
		r.nav, err = s.pool.Load(c.ctx, refPage, "http://reference.example.com/",
			core.WithExtraFunctions(func(reg *runtime.Registry) { r.rest.RegisterFunctions(reg) }))
		if err != nil {
			return nil, err
		}
		if r.table, err = s.pool.Load(c.ctx, apps.MultiplicationPage(), "http://example.com/mult.html"); err != nil {
			return nil, err
		}
		// The reader's articles: the first navArticles of one journal.
		// Visiting each once puts the catalog and the articles in the
		// client's document cache, so no window sees the wire.
		r.reads = s.corpus.journal(1 + c.idx%nJournals)[:navArticles]
		err = r.nav.Do(c.ctx, func(h *core.Host) error {
			for _, a := range r.reads {
				if _, err := navigate(h, "article", a.ID); err != nil {
					return err
				}
			}
			_, err := navigate(h, "issue", r.reads[0].Issue)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *eventLoop) sources() sources {
	src := sources{pool: s.pool, http: s.http}
	for _, r := range s.readers {
		src.rest = append(src.rest, r.rest)
	}
	return src
}

func (s *eventLoop) close() (int, error) {
	err := s.pool.Shutdown(nil)
	for _, r := range s.readers {
		closeIdle(r.http)
	}
	if s.db != nil {
		s.db.Close()
	}
	return 0, err
}

func (s *eventLoop) op(c *client) (int, error) {
	r := s.readers[c.idx]
	class := s.mix.next(c)
	var sess *serve.Session
	var turn func(h *core.Host) error
	switch class {
	case evCart:
		k := r.nextBuy
		r.nextBuy = 1 - k
		sess = r.cart[k]
		turn = func(h *core.Host) error { return s.cartEvent(c, r, k, h) }
	case evNav:
		sess = r.nav
		turn = func(h *core.Host) error { return s.navEvent(c, r, h) }
	case evTable:
		sess = r.table
		turn = func(h *core.Host) error { return tableEvent(c, h) }
	default:
		k := r.turn % sessionsPerCli
		r.turn++
		sess = [sessionsPerCli]*serve.Session{r.cart[0], r.cart[1], r.nav, r.table}[k]
		turn = func(h *core.Host) error { return renderEvent(c, r, k, h) }
	}
	id := c.tr.begin("session.do")
	err := sess.Do(c.ctx, func(h *core.Host) error {
		d0, u0 := h.Times.DispatchTotal, h.UpdateCount()
		if err := turn(h); err != nil {
			return err
		}
		if c.replay {
			if class != evRender {
				c.tr.note("core.dispatch", h.Times.DispatchTotal-d0, int64(h.UpdateCount()-u0))
				replayIndexBuild(c.tr, h.Page)
			} else {
				replaySerialize(c.tr, h.Page, true)
			}
		}
		return nil
	})
	c.tr.end(id)
	return class, err
}

// cartEvent is a Buy click, or the checkout click once checkoutEvery
// buys have piled up; either way the page's cart must equal the model's.
func (s *eventLoop) cartEvent(c *client, r *reader, k int, h *core.Host) error {
	if len(r.inCart[k]) >= checkoutEvery {
		if err := h.Click("checkout"); err != nil {
			return err
		}
		r.inCart[k] = r.inCart[k][:0]
	} else {
		name := productName(c.rng.Intn(cartProducts))
		if err := h.Click(name); err != nil {
			return err
		}
		r.inCart[k] = append(r.inCart[k], name)
	}
	cart := h.Page.ElementByID("shoppingcart")
	if cart == nil {
		return fmt.Errorf("cart: page lost its cart")
	}
	items, want := cart.Children(), r.inCart[k]
	if len(items) != len(want) {
		return fmt.Errorf("cart: page shows %d items, model has %d", len(items), len(want))
	}
	if n := len(want); n > 0 && items[0].StringValue() != want[n-1] {
		return fmt.Errorf("cart: newest item is %q, want %q", items[0].StringValue(), want[n-1])
	}
	return nil
}

// navEvent is one Reference 2.0 interaction: an issue listing (a FLWOR
// over the 512-article catalog), an article or its reference summary.
func (s *eventLoop) navEvent(c *client, r *reader, h *core.Host) error {
	a := r.reads[c.rng.Intn(len(r.reads))]
	var kind, id, want string
	switch k := c.rng.Intn(10); {
	case k < 5:
		kind, id, want = "issue", a.Issue, s.corpus.issueView(a.Issue)
	case k < 8:
		kind, id, want = "refs", a.ID, a.refsView()
	default:
		kind, id, want = "article", a.ID, a.articleView()
	}
	got, err := navigate(h, kind, id)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("nav %s %s: page shows %q, want %q", kind, id, got, want)
	}
	return nil
}

// tableEvent regenerates the multiplication table.
func tableEvent(c *client, h *core.Host) error {
	h.Page.ElementByID("size").SetAttr(dom.Name("value"), strconv.Itoa(tableSize))
	if err := h.Click("generate"); err != nil {
		return err
	}
	out := h.Page.ElementByID("out")
	if n := len(out.Elements("td")); n != tableSize*tableSize {
		return fmt.Errorf("table: %d cells, want %d", n, tableSize*tableSize)
	}
	if n := len(out.Elements("table")); n != 1 {
		return fmt.Errorf("table: %d tables on the page, want 1", n)
	}
	i, j := 1+c.rng.Intn(tableSize), 1+c.rng.Intn(tableSize)
	cell := h.Page.ElementByID(fmt.Sprintf("c%dx%d", i, j))
	if cell == nil || cell.StringValue() != strconv.Itoa(i*j) {
		return fmt.Errorf("table: cell %dx%d is wrong", i, j)
	}
	return nil
}

// renderEvent serializes a session's page, as a server-side render or a
// snapshot for a crawler would.
func renderEvent(c *client, r *reader, k int, h *core.Host) error {
	sp := c.tr.begin("core.serialize_page")
	html := h.SerializePage()
	c.tr.end(sp)
	var want string
	switch k {
	case 0, 1:
		want = `<div id="shoppingcart"`
		if n := len(r.inCart[k]); n > 0 {
			want = `<div id="shoppingcart"><p>` + r.inCart[k][n-1] + `</p>`
		}
		// "<p>p": every product name starts with p, and the page's own
		// script text has a <p> constructor that must not count.
		if got := strings.Count(html, "<p>p"); got != len(r.inCart[k]) {
			return fmt.Errorf("render: cart page shows %d items, model has %d", got, len(r.inCart[k]))
		}
	case 2:
		want = `<div id="content"><div class=`
	default:
		want = `<div id="out">`
	}
	if !strings.Contains(html, want) {
		return fmt.Errorf("render: page lacks %q", want)
	}
	return nil
}
