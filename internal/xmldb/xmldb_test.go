package xmldb

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutXML("books.xml", `<books><book id="1"><title>A</title></book><book id="2"><title>B</title></book></books>`); err != nil {
		t.Fatal(err)
	}
	if err := s.PutXML("authors.xml", `<authors><author>X</author></authors>`); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreCRUD(t *testing.T) {
	s := newStore(t)
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if _, ok := s.Get("books.xml"); !ok {
		t.Error("Get failed")
	}
	if uris := s.List(); len(uris) != 2 || uris[0] != "authors.xml" {
		t.Errorf("List = %v", uris)
	}
	if err := s.Remove("authors.xml"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("authors.xml"); ok {
		t.Error("Remove failed")
	}
	if err := s.PutXML("bad.xml", "<unclosed"); err == nil {
		t.Error("malformed XML must fail")
	}
}

func TestStoreQuery(t *testing.T) {
	s := newStore(t)
	out, err := s.Query("books.xml", `string(//book[@id="2"]/title)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "B" {
		t.Errorf("query = %q", out)
	}
	// fn:doc against the store from inside a query.
	out, err = s.Query("books.xml", `count(doc("authors.xml")//author)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1" {
		t.Errorf("doc query = %q", out)
	}
	if _, err := s.Query("missing.xml", `1`); err == nil {
		t.Error("missing doc must fail")
	}
	if _, err := s.Query("books.xml", `][`); err == nil {
		t.Error("bad query must fail")
	}
	if got := s.Stats.Snapshot(); got.QueriesEvaluated != 2 {
		t.Errorf("QueriesEvaluated = %d", got.QueriesEvaluated)
	}
}

func TestResolver(t *testing.T) {
	s := newStore(t)
	r := s.Resolver()
	if _, err := r("books.xml"); err != nil {
		t.Error(err)
	}
	if _, err := r("nope.xml"); err == nil {
		t.Error("missing doc must fail")
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestHTTPEndpoints(t *testing.T) {
	s := newStore(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Whole-document endpoint.
	code, body := get(t, ts.URL+"/doc?uri=books.xml")
	if code != 200 || !strings.Contains(body, `<book id="1">`) {
		t.Errorf("doc: %d %s", code, body)
	}
	code, _ = get(t, ts.URL+"/doc?uri=missing.xml")
	if code != 404 {
		t.Errorf("missing doc code = %d", code)
	}

	// Per-query endpoint.
	code, body = get(t, ts.URL+"/query?uri=books.xml&q="+
		"string(//book[1]/title)")
	if code != 200 || !strings.Contains(body, "A") {
		t.Errorf("query: %d %s", code, body)
	}
	code, _ = get(t, ts.URL+"/query?uri=books.xml&q=][")
	if code != 400 {
		t.Errorf("bad query code = %d", code)
	}

	// PUT a new document then list.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/doc?uri=new.xml",
		strings.NewReader(`<new/>`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Errorf("put code = %d", resp.StatusCode)
	}
	_, body = get(t, ts.URL+"/list")
	if !strings.Contains(body, "<uri>new.xml</uri>") {
		t.Errorf("list: %s", body)
	}

	st := s.Stats.Snapshot()
	if st.Requests < 5 || st.DocsServed != 1 || st.BytesServed == 0 {
		t.Errorf("stats = requests %d, docs %d, bytes %d",
			st.Requests, st.DocsServed, st.BytesServed)
	}
	s.Stats.Reset()
	if s.Stats.Snapshot().Requests != 0 {
		t.Error("reset failed")
	}
}

func TestCollectionResolver(t *testing.T) {
	s := newStore(t)
	_ = s.PutXML("articles/a2.xml", `<article n="2"/>`)
	_ = s.PutXML("articles/a1.xml", `<article n="1"/>`)
	// Default collection = all documents.
	out, err := s.Query("books.xml", `count(collection())`)
	if err != nil || out != "4" {
		t.Errorf("collection() = %q, %v", out, err)
	}
	// Prefix collections.
	out, err = s.Query("books.xml", `count(collection("articles/"))`)
	if err != nil || out != "2" {
		t.Errorf("collection(articles/) = %q, %v", out, err)
	}
	// The two values come from two trees, which document order puts in
	// the order of their URIs, not of their insertion.
	out, err = s.Query("books.xml", `string-join(collection("articles/")//article/@n, ",")`)
	if err != nil || out != "1,2" {
		t.Errorf("collection content = %q, %v; want 1,2", out, err)
	}
	out, err = s.Query("books.xml", `count(collection("nope/"))`)
	if err != nil || out != "0" {
		t.Errorf("empty collection = %q, %v", out, err)
	}
}

// TestCollectionScanCostIsTheCollections: what a collection scan
// allocates depends on the collection, not on what else the store
// holds — documents outside it are passed over by comparing the
// collection recorded at publish, and the result is sized for what
// matches.
func TestCollectionScanCostIsTheCollections(t *testing.T) {
	scanAllocs := func(outside int) float64 {
		s, err := Open("", WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, col := range []string{"/db/in", "/db/in/sub", "/db/out"} {
			if err := s.CreateCollection(col); err != nil {
				t.Fatal(err)
			}
		}
		put := func(uri string) {
			if err := s.PutXML(uri, `<d/>`); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			put("/db/in/d" + strconv.Itoa(i) + ".xml")
		}
		for i := 0; i < 4; i++ {
			put("/db/in/sub/d" + strconv.Itoa(i) + ".xml")
		}
		for i := 0; i < outside; i++ {
			put("/db/out/d" + strconv.Itoa(i) + ".xml")
		}
		docs, err := s.Collection("/db/in")
		if err != nil || len(docs) != 16 {
			t.Fatalf("collection with %d outside: %d docs, %v", outside, len(docs), err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Collection("/db/in"); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := scanAllocs(16), scanAllocs(1600)
	if few != many {
		t.Errorf("scanning 16 documents allocates %.0f times beside 16 others and %.0f beside 1,600", few, many)
	}
	if few > 8 {
		t.Errorf("scanning one collection of 16 allocates %.0f times, want a handful", few)
	}
}
