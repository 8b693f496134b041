package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// TestHelloWorld is the paper's §4.1 Hello World page.
func TestHelloWorld(t *testing.T) {
	page := `<html><head>
		<title>Hello World Page</title>
		<script type="text/xquery">
			browser:alert("Hello, World!")
		</script>
	</head><body/></html>`
	h, err := LoadPage(page, "http://www.example.com/hello.html")
	if err != nil {
		t.Fatal(err)
	}
	alerts := h.Alerts()
	if len(alerts) != 1 || alerts[0] != "Hello, World!" {
		t.Errorf("alerts = %v", alerts)
	}
}

func TestLocalMainConvention(t *testing.T) {
	// §5.1: code executed at load time may be put in local:main().
	page := `<html><head><script type="text/xquery">
		declare function local:main() { browser:alert("from main") };
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "from main" {
		t.Errorf("alerts = %v", a)
	}
}

// TestEventAttachAndClick exercises the §4.3.1 event grammar end to end.
func TestEventAttachAndClick(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare sequential function local:myEventListener($evt, $obj) {
			browser:alert(concat("Event occured: ", $evt/type, " at ", $obj/@id));
		};
		on event "click" at //input[@id="button"]
		attach listener local:myEventListener
	</script></head>
	<body><input type="button" id="button" value="Push me"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Click("button"); err != nil {
		t.Fatal(err)
	}
	a := h.Alerts()
	if len(a) != 1 || a[0] != "Event occured: click at button" {
		t.Errorf("alerts = %v", a)
	}
	// A second click fires again.
	_ = h.Click("button")
	if len(h.Alerts()) != 2 {
		t.Errorf("second click did not fire: %v", h.Alerts())
	}
}

// Click and Keyup with the empty id find no element, as DOM's
// getElementById("") does: a listener on the document element must not
// fire because an element lacks an id.
func TestEmptyIDDispatchesNothing(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare sequential function local:hit($evt, $obj) {
			browser:alert(concat("hit ", $evt/type));
		};
		on event "click" at /html attach listener local:hit;
		on event "keyup" at /html attach listener local:hit
	</script></head>
	<body><div id="a"/><p id="">x</p></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Click(""); err == nil {
		t.Error(`Click("") found an element`)
	}
	if err := h.Keyup("", "k"); err == nil {
		t.Error(`Keyup("") found an element`)
	}
	if a := h.Alerts(); len(a) != 0 {
		t.Errorf("alerts = %v, want none", a)
	}
	if err := h.Click("a"); err != nil || len(h.Alerts()) != 1 {
		t.Errorf(`Click("a"): %v, alerts %v`, err, h.Alerts())
	}
}

func TestEventDetach(t *testing.T) {
	page := `<html><head><script type="text/xqueryp">
		declare updating function local:l($evt, $obj) {
			insert node <hit/> into //div[@id="log"]
		};
		declare updating function local:off($evt, $obj) {
			on event "click" at //input[@id="b"] detach listener local:l
		};
		{
			on event "click" at //input[@id="b"] attach listener local:l;
			on event "click" at //input[@id="stop"] attach listener local:off;
		}
	</script></head>
	<body><input id="b"/><input id="stop"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("b")
	_ = h.Click("stop") // detaches
	_ = h.Click("b")
	hits := len(h.Page.ElementByID("log").Children())
	if hits != 1 {
		t.Errorf("hits = %d, want 1 (detach failed)", hits)
	}
}

func TestTriggerEvent(t *testing.T) {
	// §4.3.1: trigger event simulates a user click.
	page := `<html><head><script type="text/xqueryp">
		declare updating function local:l($evt, $obj) {
			insert node <p>clicked</p> into //body
		};
		{
			on event "click" at //input[@id="myButton"] attach listener local:l;
			trigger event "click" at //input[@id="myButton"];
		}
	</script></head><body><input id="myButton"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.SerializePage(), "<p>clicked</p>") {
		t.Errorf("trigger event did not run listener: %s", h.SerializePage())
	}
}

func TestUpdateModifiesLivePage(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		insert node <h1>Welcome</h1> as first into //body
	</script></head><body><p>old</p></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	out := h.SerializePage()
	if !strings.Contains(out, "<h1>Welcome</h1><p>old</p>") {
		t.Errorf("page = %s", out)
	}
	if h.UpdateCount() != 1 {
		t.Errorf("UpdateCount = %d", h.UpdateCount())
	}
}

func TestStyleGrammar(t *testing.T) {
	// §4.5 example: set and get style.
	page := `<html><head><script type="text/xqueryp">
		{
			set style "border-margin" of //table[@id="thistable"] to "2px";
			declare variable $mystring := get style "border-margin" of //table[@id="thistable"];
			browser:alert($mystring);
		}
	</script></head><body><table id="thistable" style="color: red"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "2px" {
		t.Errorf("alerts = %v", a)
	}
	table := h.Page.ElementByID("thistable")
	style := table.AttrValue("style")
	if !strings.Contains(style, "color: red") || !strings.Contains(style, "border-margin: 2px") {
		t.Errorf("style = %q", style)
	}
}

func TestWindowStatusReplace(t *testing.T) {
	// §4.2.1: replace value of node browser:self()/status with "Welcome".
	page := `<html><head><script type="text/xquery">
		replace value of node browser:self()/status with "Welcome"
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if h.Window.Status != "Welcome" {
		t.Errorf("status = %q", h.Window.Status)
	}
}

func TestWindowNavigationByLocationReplace(t *testing.T) {
	// §4.2.1: changing location/href displays a new webpage.
	loaded := []string{}
	loader := func(url string) (*dom.Node, error) {
		loaded = append(loaded, url)
		d := dom.NewDocument()
		el := dom.NewElement(dom.Name("html"))
		_ = d.AppendChild(el)
		return d, nil
	}
	page := `<html><head><script type="text/xquery">
		replace value of node browser:self()/location/href
		with "http://www.dbis.ethz.ch/"
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/", WithPageLoader(loader))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "http://www.dbis.ethz.ch/" {
		t.Errorf("loaded = %v", loaded)
	}
	if h.Window.Location.Hostname != "www.dbis.ethz.ch" {
		t.Errorf("location = %+v", h.Window.Location)
	}
	hist, pos := h.Window.History()
	if len(hist) != 2 || pos != 1 {
		t.Errorf("history = %v @%d", hist, pos)
	}
}

func TestWindowTreeNavigation(t *testing.T) {
	// §4.2.1: browser:top()//window[@name="leftframe"].
	page := `<html><head><script type="text/xquery">
		browser:alert(string(count(browser:top()//window[@name="leftframe"])))
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); a[0] != "0" {
		t.Errorf("no leftframe yet: %v", a)
	}
	// Add a frame and re-run via a second page load.
	child := &browser.Window{Name: "leftframe"}
	h.Window.AddFrame(child)
	page2 := `<html><head><script type="text/xquery">
		browser:alert(string(count(browser:top()//window[@name="leftframe"])))
	</script></head><body/></html>`
	h2, err := LoadPage(page2, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	h2.Window.AddFrame(&browser.Window{Name: "leftframe"})
	// Pull again through a click-driven listener.
	_ = h2
}

func TestNavigatorBranching(t *testing.T) {
	// §4.2.4 example: browser-specific code.
	page := `<html><head><script type="text/xquery">
		if (browser:navigator()/appName ftcontains "Mozilla") then
			browser:alert("You are running Mozilla")
		else if (browser:navigator()/appName ftcontains "Internet Explorer") then
			browser:alert("You are running IE")
		else
			browser:alert("Unknown browser")
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/",
		WithNavigator(browser.NavigatorInfo{AppName: "Mozilla Firefox"}))
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); a[0] != "You are running Mozilla" {
		t.Errorf("alerts = %v", a)
	}
	h2, err := LoadPage(page, "http://example.com/",
		WithNavigator(browser.NavigatorInfo{AppName: "Microsoft Internet Explorer"}))
	if err != nil {
		t.Fatal(err)
	}
	if a := h2.Alerts(); a[0] != "You are running IE" {
		t.Errorf("alerts = %v", a)
	}
}

func TestScreenAccess(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		browser:alert(string(browser:screen()/height))
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); a[0] != "800" {
		t.Errorf("screen height = %v", a)
	}
}

func TestDocBlockedInBrowser(t *testing.T) {
	// §4.2.1: fn:doc and fn:put are blocked in the browser.
	page := `<html><head><script type="text/xquery">
		doc("http://example.com/x.xml")
	</script></head><body/></html>`
	_, err := LoadPage(page, "http://example.com/")
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Errorf("fn:doc should be blocked: %v", err)
	}
}

func TestJSAndXQueryCoexist(t *testing.T) {
	// §6.2: code in both languages listens to the same events; the
	// browser serialises handler execution in registration order
	// (JavaScript first).
	var order []string
	jsSetup := func(page *dom.Node) {
		btn := page.ElementByID("search")
		btn.AddEventListener("click", false, nil, func(ev *dom.Event) {
			order = append(order, "js")
		})
	}
	page := `<html><head><script type="text/xquery">
		declare sequential function local:onSearch($evt, $obj) {
			browser:alert("xquery saw the click");
		};
		on event "click" at //input[@id="search"]
		attach listener local:onSearch
	</script></head><body><input id="search"/></body></html>`
	h, err := LoadPage(page, "http://example.com/", WithJSSetup(jsSetup))
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("search")
	if len(order) != 1 {
		t.Error("js listener did not run")
	}
	if len(h.Alerts()) != 1 {
		t.Error("xquery listener did not run")
	}
}

func TestEventNodeProperties(t *testing.T) {
	// §4.3.2: listeners can query $evt/button etc.
	page := `<html><head><script type="text/xquery">
		declare sequential function local:listener($evt, $obj) {
			if ($evt/button = 1) then browser:alert("left")
			else browser:alert("other");
		};
		on event "click" at //input[@id="submit"]
		attach listener local:listener
	</script></head><body><input id="submit"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	el := h.Page.ElementByID("submit")
	h.Dispatch(&dom.Event{Type: "click", Bubbles: true, Button: 1}, el)
	h.Dispatch(&dom.Event{Type: "click", Bubbles: true, Button: 3}, el)
	a := h.Alerts()
	if len(a) != 2 || a[0] != "left" || a[1] != "other" {
		t.Errorf("alerts = %v", a)
	}
}

func TestAttachBehindAsyncCall(t *testing.T) {
	// §4.4: behind binds a listener to the asynchronous evaluation of a
	// call; readyState 1 fires immediately, 4 on completion.
	slow := &runtime.Function{
		Name:    dom.QName{Space: "urn:svc", Local: "fetch"},
		MinArgs: 0, MaxArgs: 0,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			time.Sleep(5 * time.Millisecond)
			return xdm.Singleton(xdm.String("payload")), nil
		},
	}
	page := `<html><head><script type="text/xquery">
		declare namespace svc = "urn:svc";
		declare sequential function local:onResult($readyState, $result) {
			if ($readyState eq 4)
			then browser:alert(concat("done:", $result))
			else browser:alert("pending");
		};
		on event "stateChanged" behind svc:fetch()
		attach listener local:onResult
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/",
		WithExtraFunctions(func(reg *runtime.Registry) { reg.Register(slow) }))
	if err != nil {
		t.Fatal(err)
	}
	// Non-blocking: immediately after load only readyState 1 has fired.
	if a := h.Alerts(); len(a) != 1 || a[0] != "pending" {
		t.Errorf("before completion: %v", a)
	}
	if errs := h.WaitIdle(time.Second); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	a := h.Alerts()
	if len(a) != 2 || a[1] != "done:payload" {
		t.Errorf("after completion: %v", a)
	}
}

func TestUIStaysResponsiveDuringAsyncCall(t *testing.T) {
	// §4.4: "the call is non-blocking; the user keeps control of the
	// user interface": a click is handled while the call is pending.
	release := make(chan struct{})
	blocked := &runtime.Function{
		Name:    dom.QName{Space: "urn:svc", Local: "slow"},
		MinArgs: 0, MaxArgs: 0,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			<-release
			return xdm.Singleton(xdm.String("late")), nil
		},
	}
	page := `<html><head><script type="text/xquery">
		declare namespace svc = "urn:svc";
		declare sequential function local:onResult($readyState, $result) {
			if ($readyState eq 4) then browser:alert("async done") else ();
		};
		declare sequential function local:onClick($evt, $obj) {
			browser:alert("clicked while pending");
		};
		{
			on event "click" at //input[@id="b"] attach listener local:onClick;
			on event "stateChanged" behind svc:slow() attach listener local:onResult;
		}
	</script></head><body><input id="b"/></body></html>`
	h, err := LoadPage(page, "http://example.com/",
		WithExtraFunctions(func(reg *runtime.Registry) { reg.Register(blocked) }))
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Click("b")
	if a := h.Alerts(); len(a) != 1 || a[0] != "clicked while pending" {
		t.Fatalf("UI blocked during async call: %v", a)
	}
	close(release)
	if errs := h.WaitIdle(time.Second); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	a := h.Alerts()
	if a[len(a)-1] != "async done" {
		t.Errorf("final alerts = %v", a)
	}
}

func TestSecurityCrossOriginWindowHidden(t *testing.T) {
	// §4.2.1: a malicious site cannot learn about windows on another
	// origin — all accessors return the empty sequence.
	page := `<html><head><script type="text/xquery">
		declare sequential function local:probe($evt, $obj) {
			browser:alert(concat("status=[",
				string(browser:top()//window[2]/status), "] href=[",
				string(browser:top()//window[2]/location/href), "]"));
		};
		on event "click" at //input[@id="spy"] attach listener local:probe
	</script></head><body><input id="spy"/></body></html>`
	h, err := LoadPage(page, "http://evil.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	other := &browser.Window{Name: "victim"}
	loc, _ := browser.ParseLocation("https://bank.example.org/account")
	other.Location = loc
	other.Status = "logged in"
	h.Window.AddFrame(other)
	_ = h.Click("spy")
	a := h.Alerts()
	if len(a) != 1 || a[0] != "status=[] href=[]" {
		t.Errorf("cross-origin leak: %v", a)
	}
}

func TestSecuritySameOriginVisible(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		declare sequential function local:probe($evt, $obj) {
			browser:alert(string(browser:top()//window[@name="child"]/status));
		};
		on event "click" at //input[@id="go"] attach listener local:probe
	</script></head><body><input id="go"/></body></html>`
	h, err := LoadPage(page, "http://example.com/a")
	if err != nil {
		t.Fatal(err)
	}
	child := &browser.Window{Name: "child", Status: "First child"}
	loc, _ := browser.ParseLocation("http://example.com/b")
	child.Location = loc
	h.Window.AddFrame(child)
	_ = h.Click("go")
	if a := h.Alerts(); len(a) != 1 || a[0] != "First child" {
		t.Errorf("same-origin access failed: %v", a)
	}
}

func TestHTTPSWarningExample(t *testing.T) {
	// §4.2.1's FLWOR: write a red warning on every frame not pointing
	// to an https location.
	page := `<html><head><script type="text/xquery">
		for $x in browser:top()//window
		let $d := browser:document($x)
		where not($x/location/href ftcontains "https")
		return
			insert node <h1><font color="red">Warning: this page is not secure</font></h1>
			into $d/html/body as first
	</script></head><body><p>content</p></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	out := h.SerializePage()
	if !strings.Contains(out, "Warning: this page is not secure") {
		t.Errorf("warning not inserted: %s", out)
	}
}

func TestBrowserWrite(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		(browser:write("written "), browser:writeln("text"))
	</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Page.StringValue(); !strings.Contains(got, "written text") {
		t.Errorf("document text = %q", got)
	}
}

func TestMultipleScriptTags(t *testing.T) {
	page := `<html><head>
	<script type="text/xquery">browser:alert("one")</script>
	<script type="text/javascript">ignored();</script>
	<script type="text/xquery">browser:alert("two")</script>
	</head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	a := h.Alerts()
	if len(a) != 2 || a[0] != "one" || a[1] != "two" {
		t.Errorf("alerts = %v", a)
	}
}

func TestPromptAndConfirm(t *testing.T) {
	page := `<html><head><script type="text/xquery">
		(browser:alert(browser:prompt("name?")),
		 browser:alert(string(browser:confirm("sure?"))))
	</script></head><body/></html>`
	h2, err := LoadPage(page, "http://example.com/",
		WithBrowserSetup(func(b *browser.Browser) {
			b.QueuePromptAnswer("Alice")
			b.QueueConfirmAnswer(false)
		}))
	if err != nil {
		t.Fatal(err)
	}
	a := h2.Alerts()
	if len(a) != 2 || a[0] != "Alice" || a[1] != "false" {
		t.Errorf("alerts = %v", a)
	}
}
