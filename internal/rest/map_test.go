package rest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/faultpoint"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xqerr"
	"repro/internal/xquery"
)

// mapService exposes a store's collections to shipped expressions the
// way fed.ShardModule does (which this package cannot import).
const mapService = `module namespace s = "urn:test:shard";
declare namespace rest = "` + Namespace + `";
declare option fn:webservice "true";
declare function s:map($uri, $expr) { rest:map(fn:collection($uri), $expr) };
declare function s:plain($docs, $expr) { rest:map($docs, $expr) };`

// mapStore is a store of n articles under /db/c, each with an id, a
// year, a sentence of text and two references.
func mapStore(t *testing.T, dir string, n int) *xmldb.Store {
	t.Helper()
	st, err := xmldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.CreateCollection("/db/c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`<article id="a%02d" year="%d"><abstract>the marlin number %d returned to the coral reef</abstract>`+
			`<ref year="1990"/><ref year="%d"/></article>`, i, 1990+i%3, i, 1990+i%2)
		if err := st.PutXML(fmt.Sprintf("/db/c/a%02d.xml", i), src); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func mapServer(t *testing.T, st *xmldb.Store) (*ModuleServer, *httptest.Server) {
	t.Helper()
	srv, err := NewModuleServer(mapService, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.CollectionsIter = st.CollectionSource()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// shipTo posts expr to s:map over /db/c and returns the status and the
// body.
func shipTo(t *testing.T, ts *httptest.Server, expr string) (int, string) {
	t.Helper()
	args := EncodeArgs([]xdm.Sequence{{xdm.String("/db/c")}, {xdm.String(expr)}})
	resp, err := http.Post(ts.URL+"/call/map", "application/xml", strings.NewReader(args))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func flat(seq xdm.Sequence) string {
	var parts []string
	for _, it := range seq {
		parts = append(parts, it.Type().String()+":"+it.String())
	}
	return strings.Join(parts, " ")
}

// The runs: one (document URI, n, v₁ … vₙ) per document that yields
// values, in collection order, values typed.
func TestMapAnswersRuns(t *testing.T) {
	_, ts := mapServer(t, mapStore(t, "", 4))
	for _, c := range []struct{ expr, want string }{
		{`for $a in child::article where $a/attribute::year = "1990" return fn:string($a/attribute::id)`,
			`xs:string:/db/c/a00.xml xs:integer:1 xs:string:a00 xs:string:/db/c/a03.xml xs:integer:1 xs:string:a03`},
		{`fn:count(child::article/child::ref[attribute::year = "1990"])`,
			`xs:string:/db/c/a00.xml xs:integer:1 xs:integer:2 xs:string:/db/c/a01.xml xs:integer:1 xs:integer:1 ` +
				`xs:string:/db/c/a02.xml xs:integer:1 xs:integer:2 xs:string:/db/c/a03.xml xs:integer:1 xs:integer:1`},
		{`for $r in child::article[attribute::id = "a01"]/child::ref return (fn:data($r/attribute::year), 1.5, 2e0, fn:true())`,
			`xs:string:/db/c/a01.xml xs:integer:8 xs:untypedAtomic:1990 xs:decimal:1.5 xs:double:2 xs:boolean:true ` +
				`xs:untypedAtomic:1991 xs:decimal:1.5 xs:double:2 xs:boolean:true`},
		{`for $a in child::nosuch return 1`, ``},
	} {
		status, body := shipTo(t, ts, c.expr)
		if status != http.StatusOK {
			t.Errorf("%s: status %d: %s", c.expr, status, body)
			continue
		}
		seq, err := DecodeSequence(body)
		if err != nil {
			t.Fatal(err)
		}
		if got := flat(seq); got != c.want {
			t.Errorf("%s\n   got %s\n  want %s", c.expr, got, c.want)
		}
	}
}

// What a remote caller may not have evaluated, each a plain 400 — the
// terminal, breaker-neutral class of the taxonomy — and refused before
// any of it runs.
func TestMapRefusals(t *testing.T) {
	st := mapStore(t, "", 3)
	_, ts := mapServer(t, st)
	before, _ := st.Query("/db/c/a00.xml", `.`)
	for _, expr := range []string{
		// Updating and sequential expressions.
		`delete node child::article/child::ref`,
		`for $r in child::article/child::ref return (delete node $r, 1)`,
		`replace value of node child::article/attribute::year with "0"`,
		`rename node child::article as "x"`,
		`{ declare variable $x := 1; $x }`,
		`fn:count(child::article); 2`,
		`copy $c := . modify delete node $c/child::article return fn:count($c/child::article)`,
		// A prolog that is more than namespace declarations.
		`declare variable $x := 1; $x`,
		`declare variable $x external; $x`,
		`declare function local:f() { 1 }; local:f()`,
		`declare option fn:webservice "true"; 1`,
		`declare default element namespace "urn:x"; 1`,
		`import module namespace m = "urn:m" at "http://127.0.0.1:1/wsdl"; 1`,
		`module namespace m = "urn:m"; declare function m:f() { 1 };`,
		// Documents other than the ones handed over, and writes.
		`fn:string(fn:doc("/db/c/a01.xml")/child::article/attribute::id)`,
		`fn:count(fn:collection("/db/c"))`,
		`fn:count(fn:collection())`,
		`fn:put(., "/db/c/stolen.xml")`,
		`fn:doc-available("/db/c/a01.xml")`,
		// Host functions, the clock, the side channel.
		`rest:map(., "1")`,
		`declare namespace rest = "` + Namespace + `"; rest:map(., "1")`,
		`fn:current-dateTime()`,
		`fn:trace(1, "x")`,
		`fn:error()`,
		// Constructors and free variables.
		`<a/>`,
		`fn:string(element a { 1 })`,
		`$x`,
		// Not even XQuery.
		`for $a in`,
	} {
		if status, body := shipTo(t, ts, expr); status != http.StatusBadRequest {
			t.Errorf("%q: status %d (%s), want 400", expr, status, strings.TrimSpace(body))
		}
	}
	// A node among the values is refused when it shows up: these pass
	// the static test (a planner would not have sent them).
	for _, expr := range []string{`child::article`, `.`, `(1, child::article/child::ref)`, `fn:root(.)`, `fn:head(child::article)`} {
		status, body := shipTo(t, ts, expr)
		if status != http.StatusBadRequest || !strings.Contains(body, "yields a node") {
			t.Errorf("%q: status %d (%s), want 400 for the node", expr, status, strings.TrimSpace(body))
		}
	}
	// A dynamic error of the expression is the caller's 400 too.
	if status, body := shipTo(t, ts, `1 idiv fn:count(child::nosuch)`); status != http.StatusBadRequest {
		t.Errorf("dynamic error: status %d (%s), want 400", status, body)
	}
	// Nothing of all that touched the store.
	if after, _ := st.Query("/db/c/a00.xml", `.`); after != before || before == "" {
		t.Errorf("a refused expression changed a stored document:\nbefore %s\n after %s", before, after)
	}
	if st.Len() != 3 {
		t.Errorf("store holds %d documents, want 3", st.Len())
	}
	// The argument has to be documents.
	args := EncodeArgs([]xdm.Sequence{{xdm.Integer(1)}, {xdm.String(`1`)}})
	resp, err := http.Post(ts.URL+"/call/plain", "application/xml", strings.NewReader(args))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rest:map over an integer: status %d, want 400", resp.StatusCode)
	}
}

// The refusals are an error class of their own, and 400 is what the
// taxonomy says about them: do not retry, do not blame the backend.
func TestMapRefusalIsTerminal(t *testing.T) {
	srv, _ := mapServer(t, mapStore(t, "", 1))
	args := EncodeArgs([]xdm.Sequence{{xdm.String("/db/c")}, {xdm.String(`delete node .`)}})
	_, err := srv.Call("map", args)
	if !errors.Is(err, xquery.ErrNotShippable) {
		t.Fatalf("want ErrNotShippable, got %v", err)
	}
	if got := statusFor(err); got != http.StatusBadRequest {
		t.Errorf("statusFor = %d, want 400", got)
	}
	if Retryable(&StatusError{Status: statusFor(err)}) {
		t.Error("a refusal must not be retryable")
	}
}

// The server's budget is the request's: the documents of one shipped
// call draw on one MaxSteps, so a call that fits per document can still
// be cut off over the share — 422, as for any other call.
func TestMapBudgetSpansTheRequest(t *testing.T) {
	const expr = `fn:sum(for $i in 1 to 150 return $i)`
	one, tsOne := mapServer(t, mapStore(t, "", 1))
	sixteen, tsSixteen := mapServer(t, mapStore(t, "", 16))
	one.MaxSteps, sixteen.MaxSteps = 2000, 2000
	if status, body := shipTo(t, tsOne, expr); status != http.StatusOK {
		t.Fatalf("one document within the budget: status %d (%s)", status, body)
	}
	if status, body := shipTo(t, tsSixteen, expr); status != http.StatusUnprocessableEntity {
		t.Errorf("sixteen documents on one budget: status %d (%s), want 422", status, body)
	}
	sixteen.MaxSteps = 0
	if status, _ := shipTo(t, tsSixteen, expr); status != http.StatusOK {
		t.Errorf("sixteen documents, no budget: status %d", status)
	}
}

// The index packages' build paths are behind fault points; a shipped
// evaluation never gets as far as either, whatever it probes.
func TestMapNeverReachesAnIndexBuild(t *testing.T) {
	defer faultpoint.Reset()
	_, ts := mapServer(t, mapStore(t, "", 2))
	faultpoint.Enable(faultpoint.PointIndexBuild, faultpoint.Always(), faultpoint.WithPanic())
	faultpoint.Enable(faultpoint.PointFTIndexBuild, faultpoint.Always(), faultpoint.WithPanic())
	for _, expr := range []string{
		`fn:count(descendant::ref[attribute::year = "1990"])`,
		`for $a in descendant::article[. ftcontains "marlin"] return fn:string($a/attribute::id)`,
		`for $a in child::article where $a ftcontains "reef" return fn:count(fn:id("x", $a))`,
	} {
		if status, body := shipTo(t, ts, expr); status != http.StatusOK {
			t.Errorf("%s: status %d (%s)", expr, status, strings.TrimSpace(body))
		}
	}
	for _, point := range []string{faultpoint.PointIndexBuild, faultpoint.PointFTIndexBuild} {
		if hits, _ := faultpoint.Stats(point); hits != 0 {
			t.Errorf("shipped expressions reached %s %d times, want never", point, hits)
		}
	}
}

// Shipped expressions read the indexes the documents' owner has and
// build none: a thousand ftcontains requests leave both build counters
// where they were, and a store reopened from a checkpoint with
// full-text sidecars answers the same requests from its indexes.
func TestMapReadsIndexesAndBuildsNone(t *testing.T) {
	const expr = `for $a in child::article[. ftcontains "marlin"] return fn:string($a/attribute::id)`
	const idExpr = `fn:count(descendant::ref[attribute::year = "1990"])`
	dir := t.TempDir()
	st := mapStore(t, dir, 8)
	_, ts := mapServer(t, st)

	ftBuilds, pathBuilds := ftindex.Snapshot().Builds, index.Snapshot().Builds
	var first string
	for i := 0; i < 1000; i++ {
		e := expr
		if i%4 == 3 {
			e = idExpr // a name-index probe, for the other build counter
		}
		status, body := shipTo(t, ts, e)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, body)
		}
		if i == 0 {
			first = body
		}
	}
	if d := ftindex.Snapshot().Builds - ftBuilds; d != 0 {
		t.Errorf("1,000 shipped requests built %d full-text indexes, want 0", d)
	}
	if d := index.Snapshot().Builds - pathBuilds; d != 0 {
		t.Errorf("1,000 shipped requests built %d path indexes, want 0", d)
	}
	seq, _ := DecodeSequence(first)
	if len(seq) != 8*3 {
		t.Fatalf("scan answer: %d items, want 8 runs of 3", len(seq))
	}

	// The owner builds its indexes (a query of its own), checkpoints
	// them into sidecars, and comes back up with them attached.
	for i := 0; i < 8; i++ {
		if _, err := st.Query(fmt.Sprintf("/db/c/a%02d.xml", i), `count(//article[. ftcontains "marlin"])`); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := xmldb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if reopened.Stats.Snapshot().FTLoaded != 8 {
		t.Fatalf("reopened store attached %d sidecar indexes, want 8", reopened.Stats.Snapshot().FTLoaded)
	}
	_, ts2 := mapServer(t, reopened)
	before := ftindex.Snapshot()
	status, body := shipTo(t, ts2, expr)
	if status != http.StatusOK || body != first {
		t.Errorf("indexed answer differs from the scan's: status %d\n   got %s\n  want %s", status, body, first)
	}
	after := ftindex.Snapshot()
	if after.Hits <= before.Hits {
		t.Errorf("a shipped ftcontains over attached indexes did not probe them (hits %d → %d)", before.Hits, after.Hits)
	}
	if after.Builds != before.Builds {
		t.Errorf("it built %d indexes", after.Builds-before.Builds)
	}
}

// Every server of the process compiles shipped expressions through one
// bounded cache: however many distinct texts callers send, it holds no
// more than its capacity of them, and a second server adds none.
func TestMapCacheIsSharedAndBounded(t *testing.T) {
	st := mapStore(t, "", 1)
	_, ts1 := mapServer(t, st)
	_, ts2 := mapServer(t, st)
	for i := 0; i < 300; i++ {
		expr := fmt.Sprintf(`fn:count(child::article) + %d`, i)
		for _, ts := range []*httptest.Server{ts1, ts2} {
			if status, body := shipTo(t, ts, expr); status != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", expr, status, body)
			}
		}
	}
	if n := shipCache.Len(); n != xquery.DefaultCacheCapacity {
		t.Errorf("the shared cache holds %d programs after 300 distinct expressions, want its bound %d", n, xquery.DefaultCacheCapacity)
	}
	// Two servers, one compilation per text (plus recompiles of evicted
	// ones, which a repeat pass over a 300-long cycle makes of all).
	stats := shipCache.Stats()
	if stats.Compiles < 300 || stats.ProgramHits < 300 {
		t.Errorf("compiles %d, hits %d: want each text compiled once and hit by the second server", stats.Compiles, stats.ProgramHits)
	}
}

// TestModuleServerCollectionFields: the server's two collection fields
// name one source. The iterator answers when both are set, neither set
// is the ordinary missing-resolver error, not a call of a nil func, and
// a field set replaces a streaming default of the server's engine.
func TestModuleServerCollectionFields(t *testing.T) {
	list := func(string) ([]*dom.Node, error) {
		d, err := markup.Parse(`<list/>`)
		return []*dom.Node{d}, err
	}
	store := func(doc string) *xmldb.Store {
		st, err := xmldb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if err := st.PutXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := store(`<iter/>`)
	args := EncodeArgs([]xdm.Sequence{{xdm.String("")}})
	engineDefault := xquery.WithCollections(store(`<engine/>`).CollectionSource())
	for _, tc := range []struct {
		name       string
		list, iter bool
		opts       []xquery.Option
		want       string // in the result envelope, or in the error
	}{
		{"neither", false, false, nil, "no collection resolver available"},
		{"Collections", true, false, nil, "<list/>"},
		{"CollectionsIter", false, true, nil, "<iter/>"},
		{"both", true, true, nil, "<iter/>"},
		{"Collections over an engine default", true, false, []xquery.Option{engineDefault}, "<list/>"},
	} {
		srv, err := NewModuleServer(`module namespace s = "urn:test:shard";
declare option fn:webservice "true";
declare function s:collection($uri) { fn:collection($uri) };`, nil, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if tc.list {
			srv.Collections = list
		}
		if tc.iter {
			srv.CollectionsIter = st.CollectionSource()
		}
		out, err := srv.CallContext(context.Background(), "collection", args)
		switch {
		case tc.list || tc.iter:
			if err != nil || !strings.Contains(out, tc.want) || strings.Count(out, "/>") != 1 {
				t.Errorf("%s: %q, %v; want one document, %s", tc.name, out, err, tc.want)
			}
		case err == nil || errors.Is(err, xqerr.ErrInternal) || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v; want the %q error", tc.name, err, tc.want)
		}
	}
}
