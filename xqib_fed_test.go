package xqib_test

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	xqib "repro"
)

func startShardBackend(t *testing.T, docs map[string]string) *httptest.Server {
	t.Helper()
	return startShardBackendSeeing(t, docs, func(string) {})
}

// startShardBackendSeeing reports the path of every request the backend
// serves to seen.
func startShardBackendSeeing(t *testing.T, docs map[string]string, seen func(path string)) *httptest.Server {
	t.Helper()
	var nodes []*xqib.Node
	for uri, src := range docs {
		d, err := xqib.ParseXML(src)
		if err != nil {
			t.Fatal(err)
		}
		d.SetBaseURI(uri)
		nodes = append(nodes, d)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].BaseURI() < nodes[j].BaseURI() })
	srv, err := xqib.NewModuleServer(xqib.FedShardModule, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Collections = func(uri string) ([]*xqib.Node, error) { return nodes, nil }
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen(r.URL.Path)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// The facade wires a federation into both constructors: fn:collection
// on a bare engine and on a loaded page scatter-gathers over the
// shard backends, merged in URI order.
func TestWithFederationBothConstructors(t *testing.T) {
	a := startShardBackend(t, map[string]string{"doc-1": `<d n="1"/>`, "doc-3": `<d n="3"/>`})
	b := startShardBackend(t, map[string]string{"doc-2": `<d n="2"/>`, "doc-4": `<d n="4"/>`})
	x, err := xqib.NewFederation(xqib.FederationConfig{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	opt := xqib.WithFederation(x)

	e := xqib.NewEngine(opt)
	seq, err := e.EvalQuery(`for $d in fn:collection("/") return fn:base-uri($d)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := xqib.FormatSequence(seq); got != "doc-1 doc-2 doc-3 doc-4" {
		t.Errorf("engine collection order = %q", got)
	}

	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		browser:alert(fn:string-join(for $d in fn:collection("/") return fn:base-uri($d), ","))
	</script></head><body/></html>`, "http://example.com/", opt)
	if err != nil {
		t.Fatal(err)
	}
	if alerts := h.Alerts(); len(alerts) != 1 || alerts[0] != "doc-1,doc-2,doc-3,doc-4" {
		t.Errorf("page alerts = %v", alerts)
	}
}

// A query that maps the collection's documents to atomic values is
// evaluated by the shards, from both constructors: the backends see
// calls of shard:map and none of shard:collection, and the values come
// back in URI order.
func TestWithFederationShipsPerDocumentQueries(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	seen := func(path string) {
		mu.Lock()
		calls[path]++
		mu.Unlock()
	}
	a := startShardBackendSeeing(t, map[string]string{"doc-1": `<d n="1"><r/></d>`, "doc-3": `<d n="3"/>`}, seen)
	b := startShardBackendSeeing(t, map[string]string{"doc-2": `<d n="2"><r/><r/></d>`, "doc-4": `<d n="4"/>`}, seen)
	x, err := xqib.NewFederation(xqib.FederationConfig{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	opt := xqib.WithFederation(x)

	e := xqib.NewEngine(opt)
	seq, err := e.EvalQuery(`for $d in fn:collection("/")/d where $d/r return fn:string($d/@n)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := xqib.FormatSequence(seq); got != "1 2" {
		t.Errorf("engine: %q, want %q", got, "1 2")
	}
	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		browser:alert(fn:string(fn:count(fn:collection("/")//r)))
	</script></head><body/></html>`, "http://example.com/", opt)
	if err != nil {
		t.Fatal(err)
	}
	if alerts := h.Alerts(); len(alerts) != 1 || alerts[0] != "3" {
		t.Errorf("page alerts = %v, want [3]", alerts)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["/call/map"] != 4 || calls["/call/collection"] != 0 || calls["/wsdl"] != 1 {
		t.Errorf("backend requests %v; want 4 of /call/map (two queries, two shards), one /wsdl, no /call/collection", calls)
	}
}

// The same option also resolves "fed:endpoints" module imports into
// federated remote proxies.
func TestWithFederationModuleImport(t *testing.T) {
	a := startShardBackend(t, map[string]string{"a": `<d/>`})
	b := startShardBackend(t, map[string]string{"b": `<d/>`})
	x, err := xqib.NewFederation(xqib.FederationConfig{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	e := xqib.NewEngine(xqib.WithFederation(x))
	seq, err := e.EvalQuery(`import module namespace shard = "urn:xqib:fed:shard" at "fed:endpoints";
		for $d in shard:collection("/") return fn:base-uri($d)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := xqib.FormatSequence(seq); !strings.Contains(got, "a") || !strings.Contains(got, "b") {
		t.Errorf("federated module call result = %q", got)
	}
}

// A page loaded with the option resolves the import as well: its
// script engines get the federation's module resolver beside its
// collection source.
func TestWithFederationPageModuleImport(t *testing.T) {
	a := startShardBackend(t, map[string]string{"a": `<d/>`})
	b := startShardBackend(t, map[string]string{"b": `<d/>`})
	x, err := xqib.NewFederation(xqib.FederationConfig{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		import module namespace shard = "urn:xqib:fed:shard" at "fed:endpoints";
		browser:alert(fn:string-join(for $d in shard:collection("/") return fn:base-uri($d), ","))
	</script></head><body/></html>`, "http://example.com/", xqib.WithFederation(x))
	if err != nil {
		t.Fatal(err)
	}
	if alerts := h.Alerts(); len(alerts) != 1 || alerts[0] != "a,b" {
		t.Errorf("page alerts = %v, want [a,b]", alerts)
	}
}
