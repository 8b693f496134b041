package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xquery/runtime"
)

// page_load: one op is a whole visit — Pool.Load, the first event,
// SerializePage inside Session.Do, Close — over the five paper
// applications.

const (
	plCart = iota
	plTable
	plRef
	plSuggest
	plMashup
)

var pageLoadWorkload = &workload{
	name: "page_load",
	why: "the only workload where markup parse, browser/core init, xquery parse+plan+compile and the " +
		"program cache do most of the work; eval and PUL are small",
	tailPct: 99,
	classes: []string{"cart_load", "table_load", "ref_load", "suggest_load", "mashup_load"},
	warmOps: 150,
	setup:   setupPageLoad,
}

// freshShare is the share of loads whose script text was never seen
// before: every freshShare-th visit a client pays to an application.
const freshShare = 10

type pageLoad struct {
	corpus  *corpus
	pool    *serve.Pool
	http    *httpStats
	mix     *mix
	pages   [5]string
	hrefs   [5]string
	servers []*httptest.Server
	mashup  *apps.MashupServices
	rests   []*rest.Client // per client: one browser's HTTP cache, kept across its page loads
	https   []*http.Client
	visits  [][5]int // per client and application
}

func setupPageLoad(e *env) (_ state, err error) {
	s := &pageLoad{
		corpus: genCorpus(e.seed),
		pool:   serve.NewPool(serve.Config{}),
		http:   newHTTPStats(e.tracers()),
		mix:    newMix("cart_load", 40, "table_load", 20, "ref_load", 20, "suggest_load", 10, "mashup_load", 10),
		hrefs: [5]string{"http://shop.example.com/cart", "http://example.com/mult.html",
			"http://reference.example.com/", "http://suggest.example.com/", "http://mashup.example.com/"},
	}
	defer func() {
		if err != nil {
			s.close() // release whatever the failed set-up had started
		}
	}()
	if s.pages[plCart], err = cartPage(100); err != nil {
		return nil, err
	}
	s.pages[plTable] = apps.MultiplicationPage()

	db, err := refStore(s.corpus)
	if err != nil {
		return nil, err
	}
	dbSrv := httptest.NewServer(s.http.handler(db.Handler()))
	s.servers = append(s.servers, dbSrv)
	if s.pages[plRef], err = refClientPage(dbSrv.URL); err != nil {
		return nil, err
	}

	hints, err := rest.NewModuleServer(apps.SuggestServiceModule, nil)
	if err != nil {
		return nil, err
	}
	hintSrv := httptest.NewServer(s.http.handler(hints.Handler()))
	s.servers = append(s.servers, hintSrv)
	s.pages[plSuggest] = apps.SuggestPage(hintSrv.URL + "/wsdl")

	s.mashup = apps.NewMashupServices()
	s.pages[plMashup] = apps.MashupPage(s.mashup.Weather.URL, s.mashup.WeatherDE.URL, s.mashup.Webcams.URL)

	for range e.clients {
		hc := s.http.client()
		rc := rest.NewClient(hc)
		rc.EnableCache(true)
		s.https = append(s.https, hc)
		s.rests = append(s.rests, rc)
	}
	s.visits = make([][5]int, len(e.clients))
	return s, nil
}

func (s *pageLoad) sources() sources {
	return sources{pool: s.pool, rest: s.rests, http: s.http}
}

func (s *pageLoad) close() (int, error) {
	err := s.pool.Shutdown(nil)
	for _, hc := range s.https {
		closeIdle(hc)
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.mashup != nil {
		s.mashup.Close()
	}
	return 0, err
}

// freshScript makes a page whose script text no cache has seen: a
// per-visit constant inlined as a comment at the head of the script.
func freshScript(page string, client, op int) string {
	i := strings.Index(page, `<script type="text/xquery`)
	if i < 0 {
		return page
	}
	j := i + strings.Index(page[i:], ">") + 1
	return page[:j] + "(: visit " + strconv.Itoa(client) + "-" + strconv.Itoa(op) + " :)" + page[j:]
}

func (s *pageLoad) op(c *client) (int, error) {
	app := s.mix.next(c)
	src := s.pages[app]
	s.visits[c.idx][app]++
	if s.visits[c.idx][app]%freshShare == 0 {
		src = freshScript(src, c.idx, c.ops)
	}
	rc := s.rests[c.idx]
	opts := []core.Option{
		core.WithExtraFunctions(func(reg *runtime.Registry) { rc.RegisterFunctions(reg) }),
	}
	switch app {
	case plSuggest:
		opts = append(opts, core.WithModuleResolver(rc.ResolverContext(c.ctx)))
	case plMashup:
		opts = append(opts,
			core.WithNavigator(browser.NavigatorInfo{AppName: "XQIB", Language: "en"}),
			core.WithJSSetup(func(page *dom.Node) { s.mapListener(c, rc, page) }))
	}

	id := c.tr.begin("serve.load")
	sess, err := s.pool.Load(c.ctx, src, s.hrefs[app], opts...)
	c.tr.end(id)
	if err != nil {
		return app, err
	}
	defer func() {
		id := c.tr.begin("serve.close")
		sess.Close()
		c.tr.end(id)
	}()

	var html string
	var wants []string
	id = c.tr.begin("session.do")
	err = sess.Do(c.ctx, func(h *core.Host) error {
		ev := c.tr.begin("core.event")
		wants, err = s.firstEvent(app, c, h)
		c.tr.end(ev)
		if err != nil {
			return err
		}
		sp := c.tr.begin("core.serialize_page")
		html = h.SerializePage()
		c.tr.end(sp)
		return nil
	})
	c.tr.end(id)
	if err != nil {
		return app, err
	}
	for _, want := range wants {
		if !strings.Contains(html, want) {
			return app, fmt.Errorf("%s: page lacks %q", s.mix.names[app], want)
		}
	}
	if c.replay {
		s.replay(c, sess.Host(), src)
	}
	return app, nil
}

// firstEvent plays the visit's first user action and returns what the
// serialized page must contain afterwards.
func (s *pageLoad) firstEvent(app int, c *client, h *core.Host) ([]string, error) {
	switch app {
	case plCart:
		name := productName(c.rng.Intn(100))
		if err := h.Click(name); err != nil {
			return nil, err
		}
		return []string{`<div id="shoppingcart"><p>` + name + `</p></div>`}, nil
	case plTable:
		n := 5 + c.rng.Intn(8)
		h.Page.ElementByID("size").SetAttr(dom.Name("value"), strconv.Itoa(n))
		if err := h.Click("generate"); err != nil {
			return nil, err
		}
		i, j := 1+c.rng.Intn(n), 1+c.rng.Intn(n)
		return []string{
			fmt.Sprintf(`<td id="c%dx%d">%d</td>`, i, j, i*j),
			fmt.Sprintf(`<td id="c%dx%d">%d</td></tr></table>`, n, n, n*n),
		}, nil
	case plRef:
		issue := s.corpus.Articles[c.rng.Intn(nArticles)].Issue
		if _, err := navigate(h, "issue", issue); err != nil {
			return nil, err
		}
		return []string{`<div id="content">` + s.corpus.issueView(issue) + `</div>`}, nil
	case plSuggest:
		prefix := string(rune('a' + c.rng.Intn(len(suggestNames))))
		h.Page.ElementByID("text1").SetAttr(dom.Name("value"), prefix)
		if err := h.Keyup("text1", prefix); err != nil {
			return nil, err
		}
		if errs := h.WaitIdle(2 * time.Second); len(errs) > 0 {
			return nil, errs[0]
		}
		return []string{`<span id="txtHint">` + suggestHint(prefix) + `</span>`}, nil
	default:
		place := mashupPlaces[c.rng.Intn(len(mashupPlaces))]
		h.Page.ElementByID("searchbox").SetAttr(dom.Name("value"), place)
		if err := h.Click("searchbutton"); err != nil {
			return nil, err
		}
		if errs := h.WaitIdle(0); len(errs) > 0 {
			return nil, errs[0]
		}
		return []string{
			`<div id="map"><map location="` + place + `">`,
			`<div id="weather">` + apps.ExpectedWeatherText(place) + `</div>`,
			`<li>http://cams.example.com/` + place + `/2</li></ul></div>`,
		}, nil
	}
}

// mapListener is the mash-up's JavaScript half: the map code listening
// on the same search button as the XQuery half (§6.2).
func (s *pageLoad) mapListener(c *client, rc *rest.Client, page *dom.Node) {
	btn := page.ElementByID("searchbutton")
	btn.AddEventListener("click", false, nil, func(*dom.Event) {
		loc := page.ElementByID("searchbox").AttrValue("value")
		mapDoc, err := rc.GetContext(c.ctx, s.mashup.Maps.URL+"?loc="+url.QueryEscape(loc))
		if err != nil {
			return // the page check reports the missing map
		}
		target := page.ElementByID("map")
		target.RemoveChildren()
		_ = target.AppendChild(mapDoc.DocumentElement().Clone()) // a fresh clone has no parent to conflict with
	})
}

// replay gives the layers of a load a time of their own. Parse and the
// plug-in stages come from the host's own stage clock.
func (s *pageLoad) replay(c *client, h *core.Host, src string) {
	t := h.Times
	c.tr.note("markup.parse", t.ParsePage, int64(len(src)))
	c.tr.note("core.init_plugin", t.InitPlugin, 0)
	c.tr.note("core.compile_scripts", t.CompileScripts, 0)
	c.tr.note("core.run_main", t.RunMain, 0)
	c.tr.note("core.dispatch", t.DispatchTotal, int64(h.UpdateCount()))
	replaySerialize(c.tr, h.Page, true)
	for _, script := range core.ExtractScripts(h.Page) {
		replayCompile(c.tr, h.Engine, script)
	}
	replayIndexBuild(c.tr, h.Page)
}
