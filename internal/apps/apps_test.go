package apps

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCountLines(t *testing.T) {
	if got := CountLines("a\n\n  \nb\nc\n"); got != 3 {
		t.Errorf("CountLines = %d", got)
	}
	if got := CountLines(""); got != 0 {
		t.Errorf("CountLines empty = %d", got)
	}
}

func TestMultiplicationXQuery(t *testing.T) {
	h, err := RunMultiplicationXQuery(5)
	if err != nil {
		t.Fatal(err)
	}
	cells := MultiplicationTableCells(h.Page)
	if len(cells) != 25 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0] != "1" || cells[24] != "25" || cells[7] != "6" {
		t.Errorf("cell values wrong: %v", cells)
	}
	// Regenerating replaces the table.
	_ = h.Click("generate")
	if got := len(MultiplicationTableCells(h.Page)); got != 25 {
		t.Errorf("regenerate duplicated cells: %d", got)
	}
	// Cell highlight via delegated listener.
	td := h.Page.ElementByID("c2x3")
	if td == nil {
		t.Fatal("cell c2x3 missing")
	}
	_ = h.Click("c2x3")
	if !strings.Contains(td.AttrValue("style"), "background-color: yellow") {
		t.Errorf("highlight failed: %q", td.AttrValue("style"))
	}
}

// TestMultiplicationPageRendersEmptyOut: before the first Generate the
// page's <div id="out"> is empty, and it must render with both tags —
// an HTML parser would read <div id="out"/> as an open div that
// swallows the rest of the body.
func TestMultiplicationPageRendersEmptyOut(t *testing.T) {
	h, err := core.LoadPage(MultiplicationPage(), "http://example.com/mult.html")
	if err != nil {
		t.Fatal(err)
	}
	if html := h.SerializePage(); !strings.Contains(html, `<div id="out"></div>`) {
		t.Errorf("freshly loaded page renders without an empty out div:\n%s", html)
	}
}

func TestMultiplicationEquivalence(t *testing.T) {
	h, err := RunMultiplicationXQuery(8)
	if err != nil {
		t.Fatal(err)
	}
	jsPage, err := RunMultiplicationJS(8)
	if err != nil {
		t.Fatal(err)
	}
	xq := MultiplicationTableCells(h.Page)
	js := MultiplicationTableCells(jsPage)
	if len(xq) != len(js) {
		t.Fatalf("cell counts differ: %d vs %d", len(xq), len(js))
	}
	for i := range xq {
		if xq[i] != js[i] {
			t.Fatalf("cell %d differs: %q vs %q", i, xq[i], js[i])
		}
	}
}

func TestMultiplicationLoCRatio(t *testing.T) {
	// Paper §6.3: 77 JS lines vs 29 XQuery lines (≈2.7×). Our faithful
	// transcriptions must preserve the shape: XQuery several times
	// smaller.
	js := CountLines(MultiplicationJSSource)
	xq := CountLines(MultiplicationXQueryScript)
	if xq >= js {
		t.Errorf("XQuery (%d) should be shorter than JavaScript (%d)", xq, js)
	}
	ratio := float64(js) / float64(xq)
	if ratio < 1.8 {
		t.Errorf("LoC ratio %.2f too small to support the paper's claim (js=%d xq=%d)",
			ratio, js, xq)
	}
}

func TestShoppingCartXQuery(t *testing.T) {
	store, err := NewProductStore()
	if err != nil {
		t.Fatal(err)
	}
	cart, _, err := RunShoppingCartXQuery(store, []string{"Mouse", "Screen", "Mouse"})
	if err != nil {
		t.Fatal(err)
	}
	// "as first" puts the newest on top.
	want := []string{"Mouse", "Screen", "Mouse"}
	if len(cart) != 3 {
		t.Fatalf("cart = %v", cart)
	}
	if cart[0] != want[2] || cart[2] != want[0] {
		t.Errorf("cart order = %v", cart)
	}
}

func TestShoppingCartEquivalence(t *testing.T) {
	store, err := NewProductStore()
	if err != nil {
		t.Fatal(err)
	}
	buys := []string{"Keyboard", "Computer"}
	xq, _, err := RunShoppingCartXQuery(store, buys)
	if err != nil {
		t.Fatal(err)
	}
	js, err := RunShoppingCartBaseline(store, buys)
	if err != nil {
		t.Fatal(err)
	}
	if len(xq) != len(js) {
		t.Fatalf("carts differ: %v vs %v", xq, js)
	}
	for i := range xq {
		if xq[i] != js[i] {
			t.Errorf("cart item %d: %q vs %q", i, xq[i], js[i])
		}
	}
}

func TestShoppingCartPageIsSingleLanguage(t *testing.T) {
	store, err := NewProductStore()
	if err != nil {
		t.Fatal(err)
	}
	page, err := RenderShoppingCartXQuery(store)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page, "javascript") || strings.Contains(page, "<%") {
		t.Error("XQuery-only page contains other languages")
	}
	if !strings.Contains(page, `type="text/xqueryp"`) {
		t.Errorf("page lost its script: %s", page)
	}
	for _, p := range []string{"Keyboard", "Mouse", "Screen", "Computer"} {
		if !strings.Contains(page, p) {
			t.Errorf("product %s not rendered", p)
		}
	}
}

func TestShoppingCartLoC(t *testing.T) {
	stack := CountLines(ShoppingCartJSPSource)
	xq := CountLines(ShoppingCartXQueryServer)
	if xq >= stack {
		t.Errorf("XQuery-only (%d) should be shorter than the JSP stack (%d)", xq, stack)
	}
}

func TestMashup(t *testing.T) {
	m, err := NewMashup()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Search("Madrid"); err != nil {
		t.Fatal(err)
	}
	// Both halves handled the one click, JavaScript first (§4.1/§6.2).
	if len(m.HandlerOrder) != 2 || m.HandlerOrder[0] != "javascript" || m.HandlerOrder[1] != "xquery" {
		t.Errorf("handler order = %v", m.HandlerOrder)
	}
	if m.MapLocation() != "Madrid" {
		t.Errorf("map location = %q", m.MapLocation())
	}
	if m.WeatherText() != ExpectedWeatherText("Madrid") {
		t.Errorf("weather = %q, want %q", m.WeatherText(), ExpectedWeatherText("Madrid"))
	}
	cams := m.WebcamURLs()
	if len(cams) != 2 || !strings.Contains(cams[0], "Madrid") {
		t.Errorf("webcams = %v", cams)
	}
	// Every service saw exactly one request.
	for _, svc := range []string{"maps", "weather", "webcams"} {
		if got := m.Services.Requests(svc); got != 1 {
			t.Errorf("%s requests = %d", svc, got)
		}
	}
	// A second search updates everything.
	if err := m.Search("Zurich"); err != nil {
		t.Fatal(err)
	}
	if m.MapLocation() != "Zurich" || m.WeatherText() != ExpectedWeatherText("Zurich") {
		t.Errorf("second search: %q / %q", m.MapLocation(), m.WeatherText())
	}
}

func TestReference20Corpus(t *testing.T) {
	r, err := NewReference20(DefaultCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantArticles := DefaultCorpus.Journals * DefaultCorpus.Volumes *
		DefaultCorpus.Issues * DefaultCorpus.Articles
	if len(r.Articles) != wantArticles {
		t.Errorf("articles = %d, want %d", len(r.Articles), wantArticles)
	}
	if r.Store.Len() != wantArticles+1 {
		t.Errorf("store docs = %d", r.Store.Len())
	}
	out, err := r.Store.Query("catalog.xml", `count(//article)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "48" {
		t.Errorf("catalog articles = %s", out)
	}
}

func TestReference20ServerVsClientEquivalence(t *testing.T) {
	r, err := NewReference20(DefaultCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	server, err := NewServerSideApp(r)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientSideApp(r, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []Interaction{
		{Kind: "issue", ID: "j1v1i1"},
		{Kind: "article", ID: "j1v1i1a2"},
		{Kind: "refs", ID: "j1v1i1a2"},
	} {
		want, err := server.Render(it)
		if err != nil {
			t.Fatalf("server %v: %v", it, err)
		}
		if err := client.Do(it); err != nil {
			t.Fatalf("client %v: %v", it, err)
		}
		got := client.ContentHTML()
		if got != want {
			t.Errorf("%v: client/server views differ\nserver: %s\nclient: %s", it, want, got)
		}
	}
}

func TestReference20Offloading(t *testing.T) {
	r, err := NewReference20(DefaultCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	session := r.Session(30, 7)

	server, err := NewServerSideApp(r)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := server.Replay(session)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ServerQueries != 30 || sm.ServerRequests != 30 {
		t.Errorf("server-side metrics: %+v", sm)
	}

	cached, err := NewClientSideApp(r, true)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cached.Replay(session)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's claim: the client runs the queries (server evaluates
	// none) and caching keeps most interactions off the server.
	if cm.ServerQueries != 0 {
		t.Errorf("client-side must not evaluate queries on the server: %+v", cm)
	}
	if cm.ServerRequests >= sm.ServerRequests {
		t.Errorf("caching client should contact the server less: %d vs %d",
			cm.ServerRequests, sm.ServerRequests)
	}
	if cm.ClientCacheHits == 0 {
		t.Error("expected cache hits in a session with revisits")
	}
	// Upper bound: at most one fetch per distinct document.
	if cm.ServerRequests > r.Store.Len() {
		t.Errorf("more fetches (%d) than documents (%d)", cm.ServerRequests, r.Store.Len())
	}

	uncached, err := NewClientSideApp(r, false)
	if err != nil {
		t.Fatal(err)
	}
	um, err := uncached.Replay(session)
	if err != nil {
		t.Fatal(err)
	}
	if um.ServerRequests <= cm.ServerRequests {
		t.Errorf("cache ablation: uncached (%d) should fetch more than cached (%d)",
			um.ServerRequests, cm.ServerRequests)
	}
}

func TestSuggest(t *testing.T) {
	s, err := NewSuggest()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Type("B"); err != nil {
		t.Fatal(err)
	}
	if errs := s.Wait(); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	if got := s.Hint(); got != "Brittany" {
		t.Errorf("hint = %q", got)
	}
	if err := s.Type("Li"); err != nil {
		t.Fatal(err)
	}
	if errs := s.Wait(); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	if got := s.Hint(); got != "Linda" {
		t.Errorf("hint = %q", got)
	}
	// Multiple matches join with commas.
	_ = s.Type("A")
	_ = s.Wait()
	if got := s.Hint(); got != "Anna" {
		t.Errorf("hint = %q", got)
	}
}
