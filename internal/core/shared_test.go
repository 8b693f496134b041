package core

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

// The pages of one application share one compilation of each script
// (xquery.Cache keys on the engine's shape); these tests check that
// every host function a shared program calls still acts on the host
// that runs it.

const sharedPage = `<html><head><script type="text/xqueryp">
	declare namespace s = "urn:test:session";
	declare updating function local:bump($evt, $obj) {
		replace value of node //span[@id="n"] with number(//span[@id="n"]) + 1
	};
	declare sequential function local:hello($evt, $obj) {
		browser:alert(concat("clicked in ", s:name()));
	};
	browser:alert(concat("loaded ", s:name(), " at ", string(browser:self()/location/href))),
	browser:addEventListener(//input[@id="b"], "click", "local:bump"),
	on event "click" at //input[@id="h"] attach listener local:hello
</script></head><body><span id="n">0</span><input id="b"/><input id="h"/></body></html>`

// sessionName registers s:name(), a per-session closure: the harness's
// pattern of a different WithExtraFunctions closure per client.
func sessionName(name string) Option {
	return WithExtraFunctions(func(reg *runtime.Registry) {
		reg.Register(&runtime.Function{
			Name: dom.QName{Space: "urn:test:session", Local: "name"},
			Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) {
				return xdm.Singleton(xdm.String(name)), nil
			},
		})
	})
}

func TestSessionsShareOneCompileAndKeepTheirOwnHost(t *testing.T) {
	cache := xquery.NewCache(0)
	load := func(name string) *Host {
		t.Helper()
		h, err := LoadPage(sharedPage, "http://example.com/"+name, WithProgramCache(cache), sessionName(name))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	one, two := load("one"), load("two")
	if st := cache.Stats(); st.Compiles != 1 || st.ProgramHits != 1 {
		t.Fatalf("two sessions of one page: %+v, want 1 compile and 1 hit", st)
	}
	if one.Engine.Fingerprint() != two.Engine.Fingerprint() {
		t.Fatal("sessions of one application must have one engine shape")
	}

	// browser:addEventListener and the §4.3 grammar registered on each
	// session's own page; browser:alert, browser:self() and the extra
	// function act on the session that runs them.
	for i := 0; i < 3; i++ {
		if err := two.Click("b"); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Click("b"); err != nil {
		t.Fatal(err)
	}
	if err := one.Click("h"); err != nil {
		t.Fatal(err)
	}
	if got := one.Page.ElementByID("n").StringValue(); got != "1" {
		t.Errorf("session one counter = %s, want 1", got)
	}
	if got := two.Page.ElementByID("n").StringValue(); got != "3" {
		t.Errorf("session two counter = %s, want 3", got)
	}
	want := []string{"loaded one at http://example.com/one", "clicked in one"}
	if got := one.Alerts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("session one alerts = %q, want %q", got, want)
	}
	if got := two.Alerts(); len(got) != 1 || got[0] != "loaded two at http://example.com/two" {
		t.Errorf("session two alerts = %q", got)
	}
}

func TestFrameSharingItsParentsScriptKeepsItsOwnSelf(t *testing.T) {
	const page = `<html><head><script type="text/xquery">
		browser:alert(concat("self is '", string(browser:self()/@name), "' with ", string(count(//p)), " paragraphs"))
	</script></head><body><p/>%s</body></html>`
	cache := xquery.NewCache(0)
	h, err := LoadPage(fmt.Sprintf(page, ""), "http://example.com/", WithProgramCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LoadFrame("child", fmt.Sprintf(page, "<p/>"), "http://example.com/frame"); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Compiles != 1 || st.ProgramHits != 1 {
		t.Errorf("parent and frame with one script text: %+v, want 1 compile and 1 hit", st)
	}
	want := []string{"self is 'top_window' with 1 paragraphs", "self is 'child' with 2 paragraphs"}
	if got := h.Alerts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("alerts = %q, want %q", got, want)
	}
}

func TestImportedServiceIsCalledThroughEachSessionsClient(t *testing.T) {
	srv, err := rest.NewModuleServer(`module namespace ab = "http://example.com/hints";
		declare option fn:webservice "true";
		declare function ab:hint($s) { concat("hint for ", $s) };`, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	page := `<html><head><script type="text/xquery">
		import module namespace ab = "http://example.com/hints" at "` + ts.URL + `/wsdl";
		browser:alert(ab:hint("x"))
	</script></head><body/></html>`

	cache := xquery.NewCache(0)
	clients := []*rest.Client{rest.NewClient(ts.Client()), rest.NewClient(ts.Client())}
	for i, c := range clients {
		h, err := LoadPage(page, "http://example.com/", WithProgramCache(cache), WithModuleResolver(c.Resolver()))
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Alerts(); len(got) != 1 || got[0] != "hint for x" {
			t.Errorf("session %d alerts = %q", i, got)
		}
	}
	if st := cache.Stats(); st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1: the import binds per session, the program is shared", st.Compiles)
	}
	for i, c := range clients {
		if c.Fetches != 1 {
			t.Errorf("client %d made %d service calls, want its own session's 1", i, c.Fetches)
		}
	}
}

func TestConcurrentLoadsOfOnePageCompileOnce(t *testing.T) {
	cache := xquery.NewCache(0)
	const loads = 32
	var wg sync.WaitGroup
	errs := make(chan error, loads)
	for i := 0; i < loads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", i)
			h, err := LoadPage(sharedPage, "http://example.com/"+name, WithProgramCache(cache), sessionName(name))
			if err != nil {
				errs <- err
				return
			}
			if err := h.Click("h"); err != nil {
				errs <- err
				return
			}
			want := []string{"loaded " + name + " at http://example.com/" + name, "clicked in " + name}
			if got := h.Alerts(); fmt.Sprint(got) != fmt.Sprint(want) {
				errs <- fmt.Errorf("session %s alerts = %q", name, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := cache.Stats()
	if st.Compiles != 1 || st.Parses != 1 {
		t.Errorf("%d concurrent loads: %+v, want one compile and one parse", loads, st)
	}
	if st.ProgramHits+st.Coalesced != loads-1 {
		t.Errorf("hits(%d) + coalesced(%d) must cover the other %d loads", st.ProgramHits, st.Coalesced, loads-1)
	}
}

// A visit builds its engine on the process's browser: layer: an
// engine, its empty host layer and its option list (3 allocations),
// whatever the size of the browser: namespace. Registering the 19
// browser: functions per visit would take about 70.
func TestPageEngineAllocations(t *testing.T) {
	h := &Host{}
	if n := testing.AllocsPerRun(100, func() { h.newEngine() }); n > 4 {
		t.Errorf("building a page's engine allocates %.0f times, want at most 4", n)
	}
}

// The browser: layer sits below a page engine's host layer, so only a
// shape of the whole chain tells a page engine from a plain engine with
// the browser profile: a program compiled for one must not bind on the
// other.
func TestPageEngineShapeIsNotAPlainEngines(t *testing.T) {
	page, plain := (&Host{}).newEngine(), xquery.New(xquery.WithBrowserProfile())
	if page.Fingerprint() == plain.Fingerprint() {
		t.Error("a page engine and a plain browser-profile engine have one shape")
	}
}
