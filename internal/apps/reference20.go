package apps

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

// Reference 2.0 (§6.1, Figure 2): a publishing application over a
// journal/volume/issue/article hierarchy stored in an XMLDB. The
// original architecture renders pages with XQuery on the server; the
// migration moves the same XQuery into the browser, where whole
// documents are fetched over REST and cached "so that most user
// requests can be processed without any interaction with the Elsevier
// server".
//
// The corpus is synthetic (see DESIGN.md substitutions): Figure 2's
// claim is architectural and holds for any corpus with this hierarchy.

// CorpusConfig sizes the synthetic corpus.
type CorpusConfig struct {
	Journals, Volumes, Issues, Articles int
	RefsPerArticle                      int
	Seed                                int64
}

// DefaultCorpus is a small but non-trivial corpus.
var DefaultCorpus = CorpusConfig{Journals: 2, Volumes: 3, Issues: 2, Articles: 4, RefsPerArticle: 12, Seed: 42}

// Reference20 holds the database and its REST front end.
type Reference20 struct {
	Cfg      CorpusConfig
	Store    *xmldb.Store
	DB       *httptest.Server
	Articles []string // article ids in catalog order
}

// NewReference20 generates the corpus into a fresh store and starts its
// REST endpoint.
func NewReference20(cfg CorpusConfig) (*Reference20, error) {
	st, err := xmldb.Open("")
	if err != nil {
		return nil, err
	}
	r := &Reference20{Cfg: cfg, Store: st}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var cat strings.Builder
	cat.WriteString("<catalog>")
	for j := 1; j <= cfg.Journals; j++ {
		fmt.Fprintf(&cat, `<journal id="j%d" title="Journal %d">`, j, j)
		for v := 1; v <= cfg.Volumes; v++ {
			fmt.Fprintf(&cat, `<volume id="j%dv%d" n="%d">`, j, v, v)
			for i := 1; i <= cfg.Issues; i++ {
				issueID := fmt.Sprintf("j%dv%di%d", j, v, i)
				fmt.Fprintf(&cat, `<issue id="%s" n="%d">`, issueID, i)
				for a := 1; a <= cfg.Articles; a++ {
					id := fmt.Sprintf("%sa%d", issueID, a)
					title := fmt.Sprintf("On Topic %d.%d.%d.%d", j, v, i, a)
					fmt.Fprintf(&cat, `<article id="%s" title="%s"/>`, id, title)
					r.Articles = append(r.Articles, id)

					var art strings.Builder
					fmt.Fprintf(&art, `<article id="%s"><title>%s</title>`, id, title)
					fmt.Fprintf(&art, `<abstract>Abstract of %s with substantive findings.</abstract>`, id)
					art.WriteString(`<references>`)
					for k := 0; k < cfg.RefsPerArticle; k++ {
						year := 1985 + rng.Intn(24)
						fmt.Fprintf(&art, `<ref year="%d" title="Ref %d of %s"/>`, year, k, id)
					}
					art.WriteString(`</references></article>`)
					if err := r.Store.PutXML("articles/"+id+".xml", art.String()); err != nil {
						return nil, err
					}
				}
				cat.WriteString(`</issue>`)
			}
			cat.WriteString(`</volume>`)
		}
		cat.WriteString(`</journal>`)
	}
	cat.WriteString("</catalog>")
	if err := r.Store.PutXML("catalog.xml", cat.String()); err != nil {
		return nil, err
	}
	r.DB = httptest.NewServer(r.Store.Handler())
	return r, nil
}

// Close stops the REST endpoint.
func (r *Reference20) Close() { r.DB.Close() }

// Issues lists the issue ids in catalog order.
func (r *Reference20) Issues() []string {
	var out []string
	for j := 1; j <= r.Cfg.Journals; j++ {
		for v := 1; v <= r.Cfg.Volumes; v++ {
			for i := 1; i <= r.Cfg.Issues; i++ {
				out = append(out, fmt.Sprintf("j%dv%di%d", j, v, i))
			}
		}
	}
	return out
}

// reference20Views is the page-layout XQuery shared VERBATIM by both
// architectures — "the XQuery code which runs in the client is almost
// the same as the XQuery code that previously ran in the server"
// (§6.1). Only document access differs and is injected through the
// local:catalog/local:adoc accessors appended below.
const reference20Views = `
declare function local:issueView($cat, $issue as xs:string) {
  <div class="issue">
    <h1>{concat("Issue ", $issue)}</h1>
    <ul>{
      for $a in $cat//issue[@id = $issue]/article
      return <li class="entry" id="{$a/@id}">{string($a/@title)}</li>
    }</ul>
  </div>
};
declare function local:articleView($doc) {
  <div class="article">
    <h1>{string($doc/article/title)}</h1>
    <p>{string($doc/article/abstract)}</p>
    <p class="refcount">{count($doc/article/references/ref)} references</p>
  </div>
};
declare function local:refsView($doc) {
  <div class="refs">
    <h1>{concat("References of ", string($doc/article/@id))}</h1>
    <ul>{
      for $y in distinct-values($doc/article/references/ref/@year)
      order by $y
      return <li class="year">{concat($y, ": ", count($doc/article/references/ref[@year = $y]))}</li>
    }</ul>
  </div>
};
`

// Interaction is one user action in a browsing session.
type Interaction struct {
	Kind string // "issue", "article" or "refs"
	ID   string // issue id or article id
}

// Session generates a deterministic browsing session of n interactions
// with realistic revisits (open an issue, read an article, study its
// references, come back to articles seen before).
func (r *Reference20) Session(n int, seed int64) []Interaction {
	rng := rand.New(rand.NewSource(seed))
	issues := r.Issues()
	var out []Interaction
	var visited []string
	for len(out) < n {
		switch {
		case len(visited) > 0 && rng.Intn(4) == 0:
			// Revisit an article seen earlier.
			id := visited[rng.Intn(len(visited))]
			out = append(out, Interaction{Kind: "refs", ID: id})
		default:
			issue := issues[rng.Intn(len(issues))]
			out = append(out, Interaction{Kind: "issue", ID: issue})
			if len(out) >= n {
				break
			}
			article := fmt.Sprintf("%sa%d", issue, 1+rng.Intn(r.Cfg.Articles))
			visited = append(visited, article)
			out = append(out, Interaction{Kind: "article", ID: article})
			if len(out) >= n && rng.Intn(2) == 0 {
				break
			}
			if len(out) < n {
				out = append(out, Interaction{Kind: "refs", ID: article})
			}
		}
	}
	return out[:n]
}

// Metrics is the outcome of a session replay under one architecture.
type Metrics struct {
	Architecture    string
	Interactions    int
	ServerRequests  int
	ServerBytes     int64
	ServerQueries   int
	ClientFetches   int
	ClientCacheHits int
}

// --- server-side architecture ---------------------------------------------------

// ServerSideApp is the original architecture: every interaction is a
// request to an XQuery application server that renders the page from
// the XMLDB.
type ServerSideApp struct {
	r    *Reference20
	prog *xquery.Program
}

// NewServerSideApp compiles the server-side renderer.
func NewServerSideApp(r *Reference20) (*ServerSideApp, error) {
	// Server-side document access: fn:doc straight into the XMLDB.
	src := reference20Views + `
declare function local:catalog() { doc("catalog.xml") };
declare function local:adoc($id as xs:string) { doc(concat("articles/", $id, ".xml")) };
declare function local:render($kind as xs:string, $id as xs:string) {
  if ($kind = "issue") then local:issueView(local:catalog(), $id)
  else if ($kind = "article") then local:articleView(local:adoc($id))
  else local:refsView(local:adoc($id))
};
`
	e := xquery.New()
	prog, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	return &ServerSideApp{r: r, prog: prog}, nil
}

// Render serves one interaction: the server evaluates the XQuery and
// returns the HTML fragment it would ship to the browser.
func (a *ServerSideApp) Render(it Interaction) (string, error) {
	ctx := a.prog.NewContext(xquery.RunConfig{Docs: a.r.Store.Resolver()})
	if err := ctx.InitGlobals(); err != nil {
		return "", err
	}
	res, err := ctx.CallFunction(
		dom.QName{Space: "http://www.w3.org/2005/xquery-local-functions", Local: "render"},
		[]xdm.Sequence{
			{xdm.String(it.Kind)},
			{xdm.String(it.ID)},
		})
	if err != nil {
		return "", err
	}
	item, err := res.One()
	if err != nil {
		return "", err
	}
	n, _ := xdm.IsNode(item)
	return markup.Serialize(n), nil
}

// Replay runs a whole session server-side and reports the metrics.
func (a *ServerSideApp) Replay(session []Interaction) (Metrics, error) {
	m := Metrics{Architecture: "server-side", Interactions: len(session)}
	for _, it := range session {
		html, err := a.Render(it)
		if err != nil {
			return m, err
		}
		m.ServerRequests++ // one page request per interaction
		m.ServerQueries++  // one XQuery evaluation on the server
		m.ServerBytes += int64(len(html))
	}
	return m, nil
}

// --- per-query client (ablation E9) -----------------------------------------------

// ReplayPerQueryClient replays a session against the XMLDB's per-query
// endpoint: every interaction sends the rendering query to the server
// (the pre-migration §6.1 architecture, where modules served
// "individual queries to documents"). Whole-document caching cannot
// help because each interaction is a distinct query, and every
// evaluation burns server CPU — exactly why §6.1 adjusted the REST
// interface "so that they serve whole documents … to better enable
// caching".
func ReplayPerQueryClient(r *Reference20, session []Interaction) (Metrics, error) {
	client := rest.NewClient(nil)
	r.Store.Stats.Reset()
	for _, it := range session {
		uri, q := perQueryRequest(it)
		_, err := client.Get(r.DB.URL + "/query?uri=" + uri + "&q=" + urlQueryEscape(q))
		if err != nil {
			return Metrics{}, err
		}
	}
	st := r.Store.Stats.Snapshot()
	return Metrics{
		Architecture:    "client-side, per-query endpoint",
		Interactions:    len(session),
		ServerRequests:  int(st.Requests),
		ServerBytes:     st.BytesServed,
		ServerQueries:   int(st.QueriesEvaluated),
		ClientFetches:   client.Fetches,
		ClientCacheHits: client.CacheHit,
	}, nil
}

// perQueryRequest builds the per-interaction rendering query — the same
// views as reference20Views, inlined with the target id.
func perQueryRequest(it Interaction) (uri, q string) {
	switch it.Kind {
	case "issue":
		return "catalog.xml", `<div class="issue">
  <h1>{concat("Issue ", "` + it.ID + `")}</h1>
  <ul>{
    for $a in //issue[@id = "` + it.ID + `"]/article
    return <li class="entry" id="{$a/@id}">{string($a/@title)}</li>
  }</ul>
</div>`
	case "article":
		return "articles/" + it.ID + ".xml", `<div class="article">
  <h1>{string(/article/title)}</h1>
  <p>{string(/article/abstract)}</p>
  <p class="refcount">{count(/article/references/ref)} references</p>
</div>`
	default:
		return "articles/" + it.ID + ".xml", `<div class="refs">
  <h1>{concat("References of ", string(/article/@id))}</h1>
  <ul>{
    for $y in distinct-values(/article/references/ref/@year)
    order by $y
    return <li class="year">{concat($y, ": ", count(/article/references/ref[@year = $y]))}</li>
  }</ul>
</div>`
	}
}

func urlQueryEscape(s string) string { return url.QueryEscape(s) }

// --- client-side architecture ----------------------------------------------------

// ClientSideApp is the migrated architecture: the page-layout XQuery
// runs in the browser and fetches whole documents over REST, optionally
// caching them.
type ClientSideApp struct {
	r      *Reference20
	Host   *core.Host
	Client *rest.Client
}

// NewClientSideApp loads the client page. The rendering functions are
// the same text as the server's; only local:catalog/local:adoc now GET
// whole documents from the XMLDB's REST endpoint.
func NewClientSideApp(r *Reference20, cache bool) (*ClientSideApp, error) {
	client := rest.NewClient(nil)
	client.EnableCache(cache)
	script := `declare namespace rest = "` + rest.Namespace + `";` +
		reference20Views + `
declare function local:catalog() {
  rest:get("` + r.DB.URL + `/doc?uri=catalog.xml")
};
declare function local:adoc($id as xs:string) {
  rest:get(concat("` + r.DB.URL + `/doc?uri=articles/", $id, ".xml"))
};
declare updating function local:nav($evt, $obj) {
  let $kind := string($obj/@data-kind)
  let $id := string($obj/@data-id)
  let $view :=
    if ($kind = "issue") then local:issueView(local:catalog(), $id)
    else if ($kind = "article") then local:articleView(local:adoc($id))
    else local:refsView(local:adoc($id))
  return replace node //div[@id="content"]/* with $view
};
on event "click" at //input[@id="nav"]
attach listener local:nav
`
	page := `<html><head><title>Reference 2.0</title>
<script type="text/xqueryp">` + script + `</script>
</head><body>
<input id="nav" type="button" data-kind="" data-id=""/>
<div id="content"><div class="empty"/></div>
</body></html>`
	host, err := core.LoadPage(page, "http://reference.example.com/",
		core.WithExtraFunctions(func(reg *runtime.Registry) {
			client.RegisterFunctions(reg)
		}))
	if err != nil {
		return nil, err
	}
	return &ClientSideApp{r: r, Host: host, Client: client}, nil
}

// Do performs one interaction in the browser.
func (a *ClientSideApp) Do(it Interaction) error {
	nav := a.Host.Page.ElementByID("nav")
	nav.SetAttr(dom.Name("data-kind"), it.Kind)
	nav.SetAttr(dom.Name("data-id"), it.ID)
	if err := a.Host.Click("nav"); err != nil {
		return err
	}
	if errs := a.Host.WaitIdle(0); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// ContentHTML returns the currently rendered view.
func (a *ClientSideApp) ContentHTML() string {
	content := a.Host.Page.ElementByID("content")
	if c := content.FirstChild(); c != nil {
		return markup.Serialize(c)
	}
	return ""
}

// Replay runs a whole session client-side and reports the metrics.
func (a *ClientSideApp) Replay(session []Interaction) (Metrics, error) {
	arch := "client-side"
	a.r.Store.Stats.Reset()
	for _, it := range session {
		if err := a.Do(it); err != nil {
			return Metrics{}, err
		}
	}
	st := a.r.Store.Stats.Snapshot()
	return Metrics{
		Architecture:    arch,
		Interactions:    len(session),
		ServerRequests:  int(st.Requests),
		ServerBytes:     st.BytesServed,
		ServerQueries:   int(st.QueriesEvaluated),
		ClientFetches:   a.Client.Fetches,
		ClientCacheHits: a.Client.CacheHit,
	}, nil
}
