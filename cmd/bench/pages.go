package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dom/index"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/xmldb"
	"repro/internal/xquery"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
)

// The paper's applications as the harness drives them. Page sources and
// scripts come from internal/apps; what the harness adds is the input
// data (products, corpus) and its own model of what each page must show.

// cartPage renders the shopping-cart page over an n-product database,
// the way the application's server half does.
func cartPage(n int) (string, error) {
	st, err := xmldb.Open("")
	if err != nil {
		return "", err
	}
	if err := st.PutXML("products.xml", productsXML(n)); err != nil {
		return "", err
	}
	return apps.RenderShoppingCartXQuery(st)
}

// checkoutScript is the harness's addition to the cart page for the
// event loop: a checkout button whose listener empties the cart in one
// bulk delete. It is a <button>, so the application's own
// //input[@type="button"] listener does not see it.
const checkoutScript = `<script type="text/xqueryp">
declare updating function local:checkout($evt, $obj) {
  delete nodes //div[@id="shoppingcart"]/p
};
on event "click" at //button[@id="checkout"]
attach listener local:checkout
</script>`

func withCheckout(page string) string {
	page = strings.Replace(page, "</head>", checkoutScript+"</head>", 1)
	return strings.Replace(page, "</body>", `<button id="checkout">Checkout</button></body>`, 1)
}

// refStore serves the corpus the way the Reference 2.0 client page
// expects it: flat URIs behind the store's REST face.
func refStore(c *corpus) (*xmldb.Store, error) {
	st, err := xmldb.Open("")
	if err != nil {
		return nil, err
	}
	if err := st.PutXML("catalog.xml", c.catalogXML()); err != nil {
		return nil, err
	}
	for _, a := range c.Articles {
		if err := st.PutXML(a.flatURI(), a.xml()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// refClientPage is the Reference 2.0 client page pointed at dbURL. The
// script is the application's own: it is read back from a page the
// application builds, with only the database address replaced.
func refClientPage(dbURL string) (string, error) {
	r, err := apps.NewReference20(apps.CorpusConfig{Journals: 1, Volumes: 1, Issues: 1, Articles: 1, RefsPerArticle: 1, Seed: 1})
	if err != nil {
		return "", err
	}
	defer r.Close()
	app, err := apps.NewClientSideApp(r, false)
	if err != nil {
		return "", err
	}
	scripts := core.ExtractScripts(app.Host.Page)
	if len(scripts) != 1 {
		return "", fmt.Errorf("reference20 client page has %d scripts, want 1", len(scripts))
	}
	script := strings.ReplaceAll(scripts[0], r.DB.URL, dbURL)
	return `<html><head><title>Reference 2.0</title>
<script type="text/xqueryp">` + script + `</script>
</head><body>
<input id="nav" type="button" data-kind="" data-id=""/>
<div id="content"><div class="empty"/></div>
</body></html>`, nil
}

// The three Reference 2.0 views as the page must render them, from the
// model.

func (c *corpus) issueView(issue string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="issue"><h1>Issue %s</h1><ul>`, issue)
	for _, a := range c.Articles {
		if a.Issue == issue {
			fmt.Fprintf(&b, `<li class="entry" id="%s">%s</li>`, a.ID, a.Title)
		}
	}
	b.WriteString(`</ul></div>`)
	return b.String()
}

func (a *article) articleView() string {
	return fmt.Sprintf(`<div class="article"><h1>%s</h1><p>%s</p><p class="refcount">%d references</p></div>`,
		a.Title, a.abstract(), len(a.Refs))
}

func (a *article) refsView() string {
	counts := map[int]int{}
	for _, y := range a.Refs {
		counts[y]++
	}
	years := make([]int, 0, len(counts))
	for y := range counts {
		years = append(years, y)
	}
	sort.Ints(years)
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="refs"><h1>References of %s</h1><ul>`, a.ID)
	for _, y := range years {
		fmt.Fprintf(&b, `<li class="year">%d: %d</li>`, y, counts[y])
	}
	b.WriteString(`</ul></div>`)
	return b.String()
}

// navigate performs one Reference 2.0 interaction on a loaded client
// page and returns the rendered view.
func navigate(h *core.Host, kind, id string) (string, error) {
	nav := h.Page.ElementByID("nav")
	if nav == nil {
		return "", fmt.Errorf("reference20 page has no nav control")
	}
	nav.SetAttr(dom.Name("data-kind"), kind)
	nav.SetAttr(dom.Name("data-id"), id)
	if err := h.Click("nav"); err != nil {
		return "", err
	}
	if errs := h.WaitIdle(0); len(errs) > 0 {
		return "", errs[0]
	}
	content := h.Page.ElementByID("content")
	if content == nil || content.FirstChild() == nil {
		return "", fmt.Errorf("reference20 page rendered no view")
	}
	return markup.Serialize(content.FirstChild()), nil
}

// suggestNames are the names the suggest service knows (the data of
// apps.SuggestServiceModule), kept here as the harness's own answer key.
var suggestNames = []string{"Anna", "Brittany", "Cinderella", "Diana", "Eva", "Fiona",
	"Gunda", "Hege", "Inga", "Johanna", "Kitty", "Linda"}

func suggestHint(prefix string) string {
	var hits []string
	for _, n := range suggestNames {
		if strings.HasPrefix(strings.ToLower(n), strings.ToLower(prefix)) {
			hits = append(hits, n)
		}
	}
	return strings.Join(hits, ", ")
}

// mashupPlaces are the locations the mash-up searches for.
var mashupPlaces = []string{"zurich", "oslo", "lisbon", "vienna", "prague", "dublin", "athens", "riga",
	"bern", "rome", "paris", "madrid", "berlin", "warsaw", "sofia", "malmo"}

// --- replays ----------------------------------------------------------------------
//
// In a traced window every replayEvery-th op re-runs the public entry
// points of the layers it just used, on its actual input, so each layer
// has a time of its own.

// replayCompile times parse, plan and the whole compile of one query
// source on the engine that ran it.
func replayCompile(tr *tracer, e *xquery.Engine, src string) {
	var m *ast.Module
	tr.replay("xquery.parse", func() int64 {
		m, _ = parser.ParseModule(src)
		return int64(len(src))
	})
	if m != nil {
		tr.replay("xquery.plan", func() int64 {
			plan.Annotate(m) // a module of the harness's own: nothing else reads it
			return 0
		})
	}
	tr.replay("xquery.compile", func() int64 {
		p, err := e.Compile(src)
		if err != nil {
			return 0
		}
		rs := p.RewriteStats()
		return int64(rs.Folds + rs.Pushdowns + rs.Hoists + rs.Joins)
	})
}

// replayIndexBuild times a path-index build on a copy of the live tree.
func replayIndexBuild(tr *tracer, root *dom.Node) {
	cp := root.Clone()
	n := int64(0)
	cp.Walk(func(*dom.Node) bool { n++; return true })
	tr.replay("index.build", func() int64 {
		index.For(cp)
		return n
	})
}

// replayFTBuild times a full-text index build on a copy of the tree.
func replayFTBuild(tr *tracer, root *dom.Node) {
	cp := root.Clone()
	tr.replay("ft.build", func() int64 {
		ftindex.For(cp)
		return 0
	})
}

func replaySerialize(tr *tracer, n *dom.Node, html bool) {
	tr.replay("markup.serialize", func() int64 {
		if html {
			return int64(len(markup.SerializeHTML(n)))
		}
		return int64(len(markup.Serialize(n)))
	})
}

func replayParse(tr *tracer, src string) {
	tr.replay("markup.parse", func() int64 {
		_, _ = markup.Parse(src)
		return int64(len(src))
	})
}
