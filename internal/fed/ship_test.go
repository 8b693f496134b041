package fed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

// Shipping (Executor.Ship, ast.ShipPlan) must be invisible in what a
// query answers. RunConfig.DisableIndexes — "ignore the planner's
// annotations" — runs the same query with the documents fetched and
// evaluated here, which makes it the oracle's federated half; the other
// half is the query run on each document by itself, in URI order, which
// pins the order both promise: exact within a document, URI order
// across documents (shipped runs merge by URI, and document order
// across fetched trees is their URIs' order, DESIGN.md §5t).

// shipQueries are all shapes the planner ships. agg marks the ones
// whose value is one aggregate over the collection rather than a
// concatenation over its documents.
var shipQueries = []struct {
	q   string
	agg bool
}{
	{q: `for $a in collection("/c")/article where $a/@year = "1990" return string($a/@id)`},
	{q: `for $a in collection("/c")/article[. ftcontains "alpha"] return string($a/@id)`},
	{q: `for $a in collection("/c")/article[abstract ftcontains "beta" ftand ftnot "gamma"] return string($a/@id)`},
	{q: `count(collection("/c")/article/refs/ref[@year = "1990"])`, agg: true},
	{q: `count(collection("/c")//ref)`, agg: true},
	{q: `count(collection("/c")/nosuch)`, agg: true},
	{q: `fn:count(fn:collection()//ref[@year = "1991"])`, agg: true},
	// Every atomic type the wire knows how to carry, typed as computed.
	{q: `for $a in collection("/c")/article return count($a//ref)`},                             // integer
	{q: `for $a in collection("/c")/article return 1.5 * count($a//ref)`},                       // decimal
	{q: `for $a in collection("/c")/article return number($a/@year) div 7`},                     // double
	{q: `for $a in collection("/c")/article return (number($a/@nan), -number($a/@year) div 0)`}, // NaN, -INF
	{q: `for $a in collection("/c")/article return $a/@year > 1990`},                            // boolean
	{q: `for $a in collection("/c")/article return data($a/@id)`},                               // untypedAtomic
	{q: `for $a in collection("/c")/article return (namespace-uri($a), name($a), string-length($a/title))`},
	// Several values per document, in the document's own order.
	{q: `for $r in collection("/c")//ref return string($r/@title)`},
	{q: `for $r in collection("/c")/article/refs/ref[@year = "1990"][1] return concat($r/../../@id, "/", $r/@title)`},
	{q: `for $a in collection("/c")/article let $n := count($a//ref), $t := $a/title where $n > 1
	     return (string($a/@id), $n * 2, string($t), for $r in $a//ref[@year = "1992"] return string($r/@title),
	             if ($n > 3) then "many" else (), some $r in $a//ref satisfies $r/@year = "1989")`},
	// The collection step alone, names in a namespace, text that needs
	// escaping on the way out.
	{q: `for $d in collection("/c") return string($d/*/@id)`},
	{q: `declare namespace m = "urn:m"; for $e in collection("/c")/m:meta return (string($e/@m:k), count($e/m:e))`},
	{q: `for $a in collection("/c")/article where $a/title = "a ""q"" &amp; <b>" return string($a/@id)`},
	{q: `for $x in collection("/c")/* return name($x)`},
	{q: `count(collection("/c")/*)`, agg: true},
	{q: `for $a in collection("/c")/nosuch return 1`},
}

// shipCorpus generates n documents under /c/: mostly articles with a
// handful of references, a few of another shape.
func shipCorpus(rng *rand.Rand, n int) map[string]string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	docs := map[string]string{}
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("/c/d%03d.xml", i)
		switch {
		case i%7 == 5:
			docs[uri] = fmt.Sprintf(`<m:meta xmlns:m="urn:m" m:k="v%d" id="m%d"><m:e/><m:e/><other/></m:meta>`, i, i)
			continue
		case i%11 == 3:
			docs[uri] = fmt.Sprintf(`<note id="n%d">no article here, alpha or otherwise</note>`, i)
			continue
		}
		var b strings.Builder
		title := fmt.Sprintf("Title %d", i)
		if i%5 == 2 {
			title = `a "q" &amp; &lt;b>`
		}
		nan := ""
		if i%4 == 1 {
			nan = ` nan="x"`
		}
		fmt.Fprintf(&b, `<article id="a%d" year="%d"%s><title>%s</title><abstract>`, i, 1989+rng.Intn(4), nan, title)
		for k := 0; k < 2+rng.Intn(4); k++ {
			fmt.Fprintf(&b, "%s filler%d ", words[rng.Intn(len(words))], k)
		}
		b.WriteString(`</abstract><refs>`)
		for k := 0; k < rng.Intn(6); k++ {
			fmt.Fprintf(&b, `<ref year="%d" title="r%d of a%d"/>`, 1989+rng.Intn(4), k, i)
		}
		b.WriteString(`</refs></article>`)
		docs[uri] = b.String()
	}
	return docs
}

func sortedURIs(docs map[string]string) []string {
	uris := make([]string, 0, len(docs))
	for u := range docs {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	return uris
}

// shipFederation serves docs from k shards (document i of the URI
// order on shard i mod k) of the given module and returns an executor
// over them with the servers.
func shipFederation(t *testing.T, module string, docs map[string]string, k int, cfg Config) (*Executor, []*httptest.Server) {
	t.Helper()
	shares := make([]map[string]string, k)
	for i := range shares {
		shares[i] = map[string]string{}
	}
	for i, u := range sortedURIs(docs) {
		shares[i%k][u] = docs[u]
	}
	var servers []*httptest.Server
	for _, share := range shares {
		ts := startShardServing(t, module, share, nil)
		servers = append(servers, ts)
		cfg.Shards = append(cfg.Shards, []string{ts.URL})
	}
	return newFed(t, cfg), servers
}

func typed(seq xdm.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := xdm.IsNode(it); ok {
			out[i] = "node:" + markup.Serialize(n)
		} else {
			out[i] = it.Type().String() + ":" + it.String()
		}
	}
	return out
}

func parseDoc(t *testing.T, uri, src string) *dom.Node {
	t.Helper()
	d, err := markup.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", uri, err)
	}
	d.SetBaseURI(uri)
	return d
}

var shipEngine = xquery.New()

// evalLocal runs q with the given nodes as every collection.
func evalLocal(t *testing.T, q string, nodes []*dom.Node) (xdm.Sequence, error) {
	t.Helper()
	p, err := shipEngine.Compile(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	res, err := p.Run(xquery.RunConfig{
		Collections: runtime.CollectionResolver(func(string) ([]*dom.Node, error) { return nodes, nil }),
	})
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// shipOracle is what q answers over docs (plus, last, the extra items a
// degraded gather appends), with the order shipping promises: an
// aggregate over everything at once, anything else document by
// document in URI order.
func shipOracle(t *testing.T, q string, agg bool, docs map[string]string, extra ...*dom.Node) []string {
	t.Helper()
	var all []*dom.Node
	for _, u := range sortedURIs(docs) {
		all = append(all, parseDoc(t, u, docs[u]))
	}
	all = append(all, extra...)
	if agg {
		seq, err := evalLocal(t, q, all)
		if err != nil {
			t.Fatalf("oracle %s: %v", q, err)
		}
		return typed(seq)
	}
	var out []string
	for _, d := range all {
		seq, err := evalLocal(t, q, []*dom.Node{d})
		if err != nil {
			t.Fatalf("oracle %s on %s: %v", q, d.BaseURI(), err)
		}
		out = append(out, typed(seq)...)
	}
	return out
}

type fedMode struct {
	unshipped bool
}

func (m fedMode) String() string {
	return fmt.Sprintf("unshipped=%v", m.unshipped)
}

// evalFed runs q over the federation.
func evalFed(t *testing.T, x *Executor, q string, m fedMode) (xdm.Sequence, error) {
	t.Helper()
	p, err := shipEngine.Compile(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	ctx := context.Background()
	res, err := p.Run(xquery.RunConfig{
		Collections:    x.CollectionSource(ctx),
		DisableIndexes: m.unshipped,
	})
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

func TestShippedMatchesUnshipped(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 9, 40} {
		docs := shipCorpus(rng, n)
		for _, k := range []int{1, 2, 4} {
			x, _ := shipFederation(t, ShardModule, docs, k, Config{})
			for _, c := range shipQueries {
				want := shipOracle(t, c.q, c.agg, docs)
				for _, m := range []fedMode{{}, {unshipped: true}} {
					label := fmt.Sprintf("%d docs, %d shards, %s\n  %s", n, k, m, c.q)
					shippedBefore := Snapshot().Shipped
					seq, err := evalFed(t, x, c.q, m)
					if err != nil {
						t.Errorf("%s\n  %v", label, err)
						continue
					}
					got := typed(seq)
					switch shipped := Snapshot().Shipped - shippedBefore; {
					case m.unshipped && shipped != 0:
						t.Errorf("%s\n  DisableIndexes still shipped %d expressions", label, shipped)
					case !m.unshipped && shipped != 1:
						t.Errorf("%s\n  shipped %d expressions, want 1", label, shipped)
					}
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("%s\n   got %q\n  want %q", label, got, want)
					}
				}
			}
		}
	}
}

// A dead shard: the strict policy fails shipped and unshipped runs with
// the same typed error; PartialResults degrades both to the same
// values — the live shards' plus whatever the expression yields on the
// <fed:incomplete> element, which the mediator evaluates itself — and
// counts the degraded gather once.
func TestShippedDegradesLikeUnshipped(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(21)), 24)
	live := map[string]string{}
	for i, u := range sortedURIs(docs) {
		if i%4 != 1 {
			live[u] = docs[u]
		}
	}
	build := func(partial bool) *Executor {
		x, servers := shipFederation(t, ShardModule, docs, 4,
			Config{MaxRetries: -1, AttemptTimeout: time.Second, PartialResults: partial})
		// Learn what the shards can do while they are all up, then lose
		// shard 1.
		if !x.canShip(context.Background()) {
			t.Fatal("the federation does not ship")
		}
		servers[1].Close()
		return x
	}

	strict := build(false)
	for _, c := range shipQueries {
		for _, m := range []fedMode{{}, {unshipped: true}} {
			if _, err := evalFed(t, strict, c.q, m); !errors.Is(err, ErrBackendDown) {
				t.Errorf("strict, %s\n  %s\n  want ErrBackendDown, got %v", m, c.q, err)
			}
		}
	}

	partial := build(true)
	diagnostic, _ := xdm.IsNode(incompleteDiagnostic([]int{1}, []error{errors.New("down")}))
	sawDiagnostic := false
	for _, c := range shipQueries {
		want := shipOracle(t, c.q, c.agg, live, diagnostic)
		sawDiagnostic = sawDiagnostic || strings.Join(want, "\n") != strings.Join(shipOracle(t, c.q, c.agg, live), "\n")
		for _, m := range []fedMode{{}, {unshipped: true}} {
			ResetStats()
			seq, err := evalFed(t, partial, c.q, m)
			if err != nil {
				t.Errorf("partial, %s\n  %s\n  %v", m, c.q, err)
				continue
			}
			got := typed(seq)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("partial, %s\n  %s\n   got %q\n  want %q", m, c.q, got, want)
			}
			if s := Snapshot(); s.Partials != 1 {
				t.Errorf("partial, %s\n  %s\n  counted %d degraded gathers, want 1", m, c.q, s.Partials)
			}
		}
	}
	if !sawDiagnostic {
		t.Error("no query of the table sees the fed:incomplete element; the table lost its collection(C)/* rows")
	}
}

// A federation whose shard module predates shard:map ships nothing and
// fails nothing.
func TestFederationWithoutMapRunsUnshipped(t *testing.T) {
	const collectionOnly = `module namespace shard = "` + ShardNamespace + `";
declare option fn:webservice "true";
declare function shard:collection($uri) {
  if ($uri = "") then fn:collection() else fn:collection($uri)
};`
	docs := shipCorpus(rand.New(rand.NewSource(22)), 12)
	x, _ := shipFederation(t, collectionOnly, docs, 3, Config{})
	ResetStats()
	for _, c := range shipQueries {
		seq, err := evalFed(t, x, c.q, fedMode{})
		if err != nil {
			t.Errorf("%s\n  %v", c.q, err)
			continue
		}
		if got, want := typed(seq), shipOracle(t, c.q, c.agg, docs); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s\n   got %q\n  want %q", c.q, got, want)
		}
	}
	if s := Snapshot(); s.Shipped != 0 || s.Calls == 0 {
		t.Errorf("shipped %d expressions over %d calls, want none over some", s.Shipped, s.Calls)
	}
	if _, _, ok, err := x.Ship(context.Background(), "/c", `1`); ok || err != nil {
		t.Errorf("Ship on a federation without shard:map: ok %v, err %v", ok, err)
	}
}

// Until a backend has described itself nothing is shipped — and nothing
// fails: the description is asked for again by the next call.
func TestShipWaitsForTheDescription(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(23)), 6)
	var down atomic.Bool
	down.Store(true)
	ts := startShard(t, docs, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() && r.URL.Path == "/wsdl" {
				http.Error(w, "not yet", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	x := newFed(t, Config{Shards: [][]string{{ts.URL}}})
	const q = `count(collection("/c")//ref)`
	want := shipOracle(t, q, true, docs)
	ResetStats()
	for i, wantShipped := range []int64{0, 0, 1, 2} {
		if i == 2 {
			down.Store(false)
		}
		seq, err := evalFed(t, x, q, fedMode{})
		if err != nil || strings.Join(typed(seq), "\n") != strings.Join(want, "\n") {
			t.Fatalf("call %d: %q, %v; want %q", i, typed(seq), err, want)
		}
		if got := Snapshot().Shipped; got != wantShipped {
			t.Errorf("after call %d: %d shipped, want %d", i, got, wantShipped)
		}
	}
}

// What a shard refuses — and what a shipped expression raises — is the
// shard's 400 under "fed: shard N": terminal, so one attempt per shard,
// no retry, no mark on any breaker.
func TestShipRefusalIsTerminal(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(24)), 8)
	x, _ := shipFederation(t, ShardModule, docs, 4, Config{RetryBase: time.Millisecond})
	ctx := context.Background()
	if !x.canShip(ctx) {
		t.Fatal("the federation does not ship")
	}
	for _, src := range []string{
		`delete node child::article`,      // refused before it runs
		`child::article`,                  // a node among the values
		`1 idiv fn:count(child::nosuch)`,  // a dynamic error
		`declare variable $x := 1; $x`,    // a prolog
		`fn:count(fn:collection("/c"))`,   // other documents
		`for $a in child::article return`, // not XQuery
	} {
		ResetStats()
		_, _, ok, err := x.Ship(ctx, "/c", src)
		var se *rest.StatusError
		if !ok || !errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "fed: shard ") {
			t.Errorf("%s\n  ok %v, err %v; want a shard's 400", src, ok, err)
		}
		if errors.Is(err, ErrBackendDown) {
			t.Errorf("%s\n  a refusal is not an availability failure: %v", src, err)
		}
		if s := Snapshot(); s.Calls != 4 || s.Retries != 0 || s.Hedges != 0 || s.BreakerOpens != 0 {
			t.Errorf("%s\n  %+v; want 4 calls, nothing retried, hedged or opened", src, s)
		}
	}
	// The same query through the engine: the error names the collection
	// and the shard.
	_, err := evalFed(t, x, `for $a in collection("/c")/article return 1 idiv count($a/nosuch)`, fedMode{})
	if err == nil || !strings.Contains(err.Error(), `fn:collection("/c")`) || !strings.Contains(err.Error(), "fed: shard ") {
		t.Errorf("dynamic error through the engine: %v", err)
	}
	if _, err := evalFed(t, x, `for $a in collection("/c")/article return 1 idiv count($a/nosuch)`, fedMode{unshipped: true}); err == nil {
		t.Error("the unshipped run of the same query must fail too")
	}
	// Every breaker is still closed: the next call goes through.
	vals, _, ok, err := x.Ship(ctx, "/c", `fn:count(child::article)`)
	if !ok || err != nil || len(vals) == 0 {
		t.Errorf("after the refusals: %d values, ok %v, err %v", len(vals), ok, err)
	}
}

func TestDecodeRuns(t *testing.T) {
	item := func(typ, val string) string { return `<item type="xs:` + typ + `">` + val + `</item>` }
	run := func(items ...string) string { return `<result>` + strings.Join(items, "") + `</result>` }
	got, err := decodeRuns(run(
		item("string", "/c/a"), item("integer", "2"), item("string", "x"), item("double", "1.5"),
		item("string", "/c/b"), item("integer", "0"),
		item("string", "/c/c"), item("integer", "1"), item("boolean", "true")))
	if err != nil {
		t.Fatal(err)
	}
	var flat []string
	for _, k := range got {
		flat = append(flat, k.key+"="+k.item.Type().String()+":"+k.item.String())
	}
	if want := "/c/a=xs:string:x /c/a=xs:double:1.5 /c/c=xs:boolean:true"; strings.Join(flat, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(flat, " "), want)
	}
	if got, err := decodeRuns(run()); err != nil || len(got) != 0 {
		t.Errorf("no runs: %v, %v", got, err)
	}
	for name, body := range map[string]string{
		"header cut":        run(item("string", "/c/a")),
		"values cut":        run(item("string", "/c/a"), item("integer", "2"), item("string", "x")),
		"count not a count": run(item("string", "/c/a"), item("string", "2"), item("string", "x"), item("string", "y")),
		"uri not a string":  run(item("integer", "1"), item("integer", "1"), item("string", "x")),
		"negative count":    run(item("string", "/c/a"), item("integer", "-1")),
		"a node":            run(item("string", "/c/a"), item("integer", "1"), `<item kind="node"><x/></item>`),
		"torn envelope":     `<result><item type="xs:string">/c/a</item><item type="xs:int`,
	} {
		if _, err := decodeRuns(body); !errors.Is(err, rest.ErrMalformedPayload) || !rest.Retryable(err) {
			t.Errorf("%s: %v, want a (retryable) malformed payload", name, err)
		}
	}
}

// A profile says how many of a run's expressions went to the shards.
func TestProfilerCountsShipped(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(25)), 6)
	x, _ := shipFederation(t, ShardModule, docs, 2, Config{})
	ctx := context.Background()
	p, err := shipEngine.Compile(`(count(collection("/c")//ref), for $a in collection("/c")/article return string($a/@id), count(collection("/c")))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, unshipped := range []bool{false, true} {
		prof := runtime.NewProfiler()
		if _, err := p.Run(xquery.RunConfig{
			Collections:    x.CollectionSource(ctx),
			Profiler:       prof,
			DisableIndexes: unshipped,
		}); err != nil {
			t.Fatal(err)
		}
		want := int64(2) // the third expression counts documents: not a shipped shape
		if unshipped {
			want = 0
		}
		if got := prof.Count("fed:shipped"); got != want {
			t.Errorf("unshipped=%v: fed:shipped = %d, want %d", unshipped, got, want)
		}
		if has := strings.Contains(prof.Format(), "fed:shipped"); has != (want > 0) {
			t.Errorf("unshipped=%v: profile shows fed:shipped: %v\n%s", unshipped, has, prof.Format())
		}
	}
}

// Shipping follows the run's collection source: on an engine whose
// default source is a federation, a run that brings a source of its
// own that cannot ship sends nothing to the shards, and a run given the
// federation's source ships.
func TestShipFollowsTheRunsSource(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(27)), 6)
	x, _ := shipFederation(t, ShardModule, docs, 2, Config{})
	ctx := context.Background()
	const q = `for $a in collection("/c")/article return string($a/@id)`
	p, err := xquery.New(xquery.WithCollections(x.CollectionSource(ctx))).Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var local []*dom.Node
	for _, u := range sortedURIs(docs) {
		local = append(local, parseDoc(t, u, docs[u]))
	}
	want := strings.Join(shipOracle(t, q, false, docs), "\n")
	for _, tc := range []struct {
		name  string
		src   runtime.CollectionSource
		ships bool
	}{
		{"own source", runtime.CollectionResolver(func(string) ([]*dom.Node, error) { return local, nil }), false},
		{"federation's source", x.CollectionSource(ctx), true},
	} {
		before := Snapshot().Shipped
		res, err := p.Run(xquery.RunConfig{Collections: tc.src})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(typed(res.Value), "\n"); got != want {
			t.Errorf("%s: %q, want %q", tc.name, got, want)
		}
		if shipped := Snapshot().Shipped - before; (shipped > 0) != tc.ships {
			t.Errorf("%s: %d expressions shipped, want ships=%v", tc.name, shipped, tc.ships)
		}
	}
}

// Many first calls at once: one of them reads the service description,
// the others run unshipped meanwhile, all of them answer the same, and
// from then on everything ships.
func TestShipConcurrentFirstCalls(t *testing.T) {
	docs := shipCorpus(rand.New(rand.NewSource(26)), 12)
	const q = `for $a in collection("/c")/article return string($a/@id)`
	want := strings.Join(shipOracle(t, q, false, docs), "\n")
	for round := 0; round < 5; round++ {
		x, _ := shipFederation(t, ShardModule, docs, 3, Config{})
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seq, err := evalFed(t, x, q, fedMode{})
				if got := strings.Join(typed(seq), "\n"); err == nil && got != want {
					err = fmt.Errorf("got %q", typed(seq))
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
		if x.ships.Load() != 1 {
			t.Errorf("round %d: after sixteen calls the executor still does not know its shards ship", round)
		}
		before := Snapshot().Shipped
		if _, err := evalFed(t, x, q, fedMode{}); err != nil || Snapshot().Shipped != before+1 {
			t.Errorf("round %d: a later call: err %v, shipped %d → %d", round, err, before, Snapshot().Shipped)
		}
	}
}
