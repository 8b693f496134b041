package rest

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// The paper's §3.4 web service.
const mulService = `module namespace ex = "www.example.ch" port:2001;
declare option fn:webservice "true";
declare function ex:mul($a, $b) { $a * $b };
declare function ex:greet($name) { concat("hello ", $name) };
declare function ex:item($uri) { doc($uri)/catalog/item[1] };`

func newService(t *testing.T) (*ModuleServer, *httptest.Server) {
	t.Helper()
	docs := func(uri string) (*dom.Node, error) {
		return markup.Parse(`<catalog><item id="1">first</item><item id="2">second</item></catalog>`)
	}
	srv, err := NewModuleServer(mulService, docs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestModuleServerValidation(t *testing.T) {
	if _, err := NewModuleServer(`1+1`, nil); err == nil {
		t.Error("main module must be rejected")
	}
	noOption := `module namespace x = "urn:x";
		declare function x:f() { 1 };`
	if _, err := NewModuleServer(noOption, nil); err == nil {
		t.Error("missing webservice option must be rejected")
	}
}

func TestModulePortDeclaration(t *testing.T) {
	srv, _ := newService(t)
	if srv.Port() != 2001 {
		t.Errorf("port = %d", srv.Port())
	}
	if srv.URI() != "www.example.ch" {
		t.Errorf("uri = %q", srv.URI())
	}
}

func TestWSDLDescription(t *testing.T) {
	_, ts := newService(t)
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])
	for _, want := range []string{`namespace="www.example.ch"`, `name="mul" arity="2"`, `name="greet" arity="1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("wsdl missing %q: %s", want, out)
		}
	}
}

func TestRemoteCallThroughImport(t *testing.T) {
	// The paper's §3.4 client: import the module and call ab:mul(2,5).
	_, ts := newService(t)
	client := NewClient(ts.Client())
	e := xquery.New(xquery.WithModuleResolver(client.Resolver()))
	q := `import module namespace ab = "www.example.ch" at "` + ts.URL + `/wsdl";
	      ab:mul(2, 5)`
	res, err := e.EvalQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].String() != "10" {
		t.Errorf("ab:mul(2,5) = %v", res)
	}
	// String results.
	q2 := `import module namespace ab = "www.example.ch" at "` + ts.URL + `/wsdl";
	       ab:greet("world")`
	res, err = e.EvalQuery(q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "hello world" {
		t.Errorf("greet = %v", res)
	}
	// Node results survive the wire.
	q3 := `import module namespace ab = "www.example.ch" at "` + ts.URL + `/wsdl";
	       string(ab:item("any")/@id)`
	res, err = e.EvalQuery(q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "1" {
		t.Errorf("item id = %v", res)
	}
}

func TestPaperReplaceWithServiceResult(t *testing.T) {
	// §3.4: replace value of node html//input[@name="textbox"]/value
	// with ab:mul(2,5) — run against a small page.
	_, ts := newService(t)
	client := NewClient(ts.Client())
	e := xquery.New(xquery.WithModuleResolver(client.Resolver()))
	page, err := markup.Parse(`<html><input name="textbox"><value>0</value></input></html>`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e.Compile(`import module namespace ab = "www.example.ch" at "` + ts.URL + `/wsdl";
		replace value of node /html//input[@name="textbox"]/value with ab:mul(2,5)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(xquery.RunConfig{ContextItem: xdm.NewNode(page)}); err != nil {
		t.Fatal(err)
	}
	got := page.Elements("value")[0].StringValue()
	if got != "10" {
		t.Errorf("value = %q", got)
	}
}

func TestCallErrors(t *testing.T) {
	_, ts := newService(t)
	client := NewClient(ts.Client())
	// Unknown function.
	_, err := client.invoke(ts.URL+"/call/nosuch", nil)
	if err == nil {
		t.Error("unknown function must fail")
	}
	// Wrong arity.
	_, err = client.invoke(ts.URL+"/call/mul", []xdm.Sequence{{xdm.Integer(1)}})
	if err == nil {
		t.Error("wrong arity must fail")
	}
}

func TestServerStats(t *testing.T) {
	srv, ts := newService(t)
	client := NewClient(ts.Client())
	_, _ = client.invoke(ts.URL+"/call/mul", []xdm.Sequence{{xdm.Integer(2)}, {xdm.Integer(3)}})
	_, _ = http.Get(ts.URL + "/wsdl")
	reqs, bytes, queries := srv.Stats.Snapshot()
	if reqs != 2 || queries != 1 || bytes == 0 {
		t.Errorf("stats = %d %d %d", reqs, bytes, queries)
	}
	srv.Stats.Reset()
	if r, _, _ := srv.Stats.Snapshot(); r != 0 {
		t.Error("reset failed")
	}
}

func TestSequenceWireFormatRoundTrip(t *testing.T) {
	el, _ := markup.Parse(`<book id="b1"><title>T &amp; A</title></book>`)
	in := xdm.Sequence{
		xdm.String("hello <world>"),
		xdm.Integer(-42),
		xdm.Double(1.5),
		xdm.Boolean(true),
		xdm.NewNode(el.DocumentElement()),
		xdm.UntypedAtomic("u"),
	}
	wire := EncodeSequence(in)
	out, err := DecodeSequence(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if _, isNode := xdm.IsNode(in[i]); isNode {
			n, _ := xdm.IsNode(out[i])
			if n.Name.Local != "book" || n.AttrValue("id") != "b1" {
				t.Errorf("node item mangled: %s", markup.Serialize(n))
			}
			continue
		}
		if out[i].String() != in[i].String() || out[i].Type() != in[i].Type() {
			t.Errorf("item %d: %v (%s) != %v (%s)", i, out[i], out[i].Type(), in[i], in[i].Type())
		}
	}
}

func TestArgsWireFormatRoundTrip(t *testing.T) {
	in := []xdm.Sequence{
		{xdm.Integer(1), xdm.Integer(2)},
		nil,
		{xdm.String("x")},
	}
	out, err := DecodeArgs(EncodeArgs(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 2 || len(out[1]) != 0 || out[2][0].String() != "x" {
		t.Errorf("args = %v", out)
	}
}

func TestClientGetAndCache(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		_, _ = w.Write([]byte(`<doc n="` + r.URL.Path + `"/>`))
	}))
	defer ts.Close()

	c := NewClient(ts.Client())
	// No cache: every Get fetches.
	if _, err := c.Get(ts.URL + "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ts.URL + "/a"); err != nil {
		t.Fatal(err)
	}
	if hits != 2 || c.Fetches != 2 || c.CacheHit != 0 {
		t.Errorf("no-cache: hits=%d fetches=%d cacheHits=%d", hits, c.Fetches, c.CacheHit)
	}
	// Cache on: repeats are served locally.
	c.EnableCache(true)
	_, _ = c.Get(ts.URL + "/b")
	_, _ = c.Get(ts.URL + "/b")
	_, _ = c.Get(ts.URL + "/b")
	if hits != 3 || c.CacheHit != 2 {
		t.Errorf("cache: hits=%d cacheHits=%d", hits, c.CacheHit)
	}
	c.ClearCache()
	_, _ = c.Get(ts.URL + "/b")
	if hits != 4 {
		t.Error("ClearCache did not evict")
	}
}

func TestClientGetErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		_, _ = w.Write([]byte(`not xml <<<`))
	}))
	defer ts.Close()
	c := NewClient(ts.Client())
	if _, err := c.Get(ts.URL + "/bad"); err == nil {
		t.Error("404 must fail")
	}
	if _, err := c.Get(ts.URL + "/malformed"); err == nil {
		t.Error("malformed XML must fail")
	}
}

func TestRestGetFunction(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<weather><temp>21</temp></weather>`))
	}))
	defer ts.Close()
	c := NewClient(ts.Client())
	e := xquery.New(xquery.WithFunctions(c.RegisterFunctions))
	res, err := e.EvalQuery(`declare namespace rest = "`+Namespace+`";
		string(rest:get("`+ts.URL+`")/weather/temp)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "21" {
		t.Errorf("rest:get = %v", res)
	}
}

// Property: the sequence wire format round-trips arbitrary strings
// (escaping robustness).
func TestWireFormatStringProperty(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) || strings.ContainsAny(s, "\x00\r") {
			return true // XML cannot carry these; out of scope
		}
		for _, r := range s {
			if r < 0x20 && r != '\t' && r != '\n' {
				return true
			}
		}
		in := xdm.Sequence{xdm.String(s)}
		out, err := DecodeSequence(EncodeSequence(in))
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].String() == s && out[0].Type() == xdm.TString
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: integers round trip exactly.
func TestWireFormatIntegerProperty(t *testing.T) {
	f := func(n int64) bool {
		out, err := DecodeSequence(EncodeSequence(xdm.Sequence{xdm.Integer(n)}))
		return err == nil && len(out) == 1 && out[0] == xdm.Integer(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
