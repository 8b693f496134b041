package fed

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// startShard serves ShardModule over a backend owning the given
// documents (uri → XML). An optional middleware wraps the handler for
// fault injection.
func startShard(t testing.TB, docs map[string]string, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	return startShardServing(t, ShardModule, docs, mw)
}

// startShardServing is startShard for a shard module of the caller's.
func startShardServing(t testing.TB, module string, docs map[string]string, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	var nodes []*dom.Node
	for uri, src := range docs {
		d, err := markup.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", uri, err)
		}
		d.SetBaseURI(uri)
		nodes = append(nodes, d)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].BaseURI() < nodes[j].BaseURI() })
	srv, err := rest.NewModuleServer(module, nil)
	if err != nil {
		t.Fatalf("shard module: %v", err)
	}
	srv.Collections = func(uri string) ([]*dom.Node, error) { return nodes, nil }
	h := http.Handler(srv.Handler())
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// flatten serializes a result sequence for byte-comparison.
func flatten(t testing.TB, seq xdm.Sequence) string {
	t.Helper()
	var b strings.Builder
	for _, it := range seq {
		if n, ok := xdm.IsNode(it); ok {
			b.WriteString(markup.Serialize(n))
		} else {
			b.WriteString(it.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// shardDocs builds four interleaved document sets whose URI-ordered
// union is the oracle.
func shardDocs() []map[string]string {
	return []map[string]string{
		{"doc-00": `<d n="00"/>`, "doc-04": `<d n="04"/>`, "doc-08": `<d n="08"/>`},
		{"doc-01": `<d n="01"/>`, "doc-05": `<d n="05"/>`},
		{"doc-02": `<d n="02"/>`, "doc-06": `<d n="06"/>`, "doc-09": `<d n="09"/>`},
		{"doc-03": `<d n="03"/>`, "doc-07": `<d n="07"/>`},
	}
}

// oracle evaluates the same collection over all documents in one
// process: the byte-identical reference a healthy federation must
// match.
func oracle(t *testing.T, sets []map[string]string) string {
	t.Helper()
	all := map[string]string{}
	for _, s := range sets {
		for k, v := range s {
			all[k] = v
		}
	}
	var uris []string
	for u := range all {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	var b strings.Builder
	for _, u := range uris {
		d, err := markup.Parse(all[u])
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(markup.Serialize(d))
		b.WriteString("\n")
	}
	return b.String()
}

func newFed(t testing.TB, cfg Config) *Executor {
	t.Helper()
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestFederatedCollectionMergesInURIOrder(t *testing.T) {
	sets := shardDocs()
	var shards [][]string
	for _, s := range sets {
		shards = append(shards, []string{startShard(t, s, nil).URL})
	}
	x := newFed(t, Config{Shards: shards})
	seq, err := x.Collection(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatten(t, seq), oracle(t, sets); got != want {
		t.Errorf("merged result differs from oracle:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Document identity survived the wire: every item is a document
	// node carrying its base URI.
	for i, it := range seq {
		n, ok := xdm.IsNode(it)
		if !ok || n.Type != dom.DocumentNode || n.BaseURI() == "" {
			t.Fatalf("item %d: want document node with base URI, got %v", i, it)
		}
	}
}

func TestFederatedCollectionThroughEngine(t *testing.T) {
	sets := shardDocs()
	var shards [][]string
	for _, s := range sets {
		shards = append(shards, []string{startShard(t, s, nil).URL})
	}
	x := newFed(t, Config{Shards: shards})
	ctx := context.Background()
	p, err := xquery.New().Compile(`for $d in fn:collection("/") return fn:base-uri($d)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(xquery.RunConfig{
		Collections: x.CollectionSource(ctx),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "doc-00\ndoc-01\ndoc-02\ndoc-03\ndoc-04\ndoc-05\ndoc-06\ndoc-07\ndoc-08\ndoc-09\n"
	if got := flatten(t, res.Value); got != want {
		t.Errorf("engine-level federation:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPartialResultsDegradation(t *testing.T) {
	sets := shardDocs()
	var shards [][]string
	var dead *httptest.Server
	for i, s := range sets {
		ts := startShard(t, s, nil)
		if i == 1 {
			dead = ts
		}
		shards = append(shards, []string{ts.URL})
	}
	dead.Close()

	t.Run("strict", func(t *testing.T) {
		x := newFed(t, Config{Shards: shards, MaxRetries: -1, AttemptTimeout: time.Second})
		_, err := x.Collection(context.Background(), "/")
		if !errors.Is(err, ErrBackendDown) {
			t.Fatalf("want ErrBackendDown, got %v", err)
		}
	})

	t.Run("partial", func(t *testing.T) {
		x := newFed(t, Config{Shards: shards, MaxRetries: -1, AttemptTimeout: time.Second, PartialResults: true})
		seq, err := x.Collection(context.Background(), "/")
		if err != nil {
			t.Fatal(err)
		}
		// Available shards' documents, URI-ordered, then the
		// diagnostic tail.
		last := seq[len(seq)-1]
		n, ok := xdm.IsNode(last)
		if !ok || n.Name.Local != "incomplete" || n.Name.Space != Namespace {
			t.Fatalf("want trailing fed:incomplete element, got %v", last)
		}
		if got := n.AttrValue("shards"); got != "1" {
			t.Errorf("incomplete shards attr = %q, want \"1\"", got)
		}
		var uris []string
		for _, it := range seq[:len(seq)-1] {
			d, _ := xdm.IsNode(it)
			uris = append(uris, d.BaseURI())
		}
		want := []string{"doc-00", "doc-02", "doc-03", "doc-04", "doc-06", "doc-07", "doc-08", "doc-09"}
		if strings.Join(uris, " ") != strings.Join(want, " ") {
			t.Errorf("partial URIs = %v, want %v", uris, want)
		}
	})
}

func TestModuleFederationViaResolver(t *testing.T) {
	// Each backend serves the same module namespace; a federated call
	// concatenates the per-shard results.
	const mod = `module namespace sv = "urn:test:fedsvc";
declare option fn:webservice "true";
declare function sv:tag($x) { <from>{$x}</from> };`
	var shards [][]string
	for i := 0; i < 2; i++ {
		srv, err := rest.NewModuleServer(mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, []string{ts.URL})
	}
	x := newFed(t, Config{Shards: shards, Idempotent: map[string]bool{"tag": true}})
	e := xquery.New(xquery.WithModuleResolver(x.Resolver(context.Background())))
	p, err := e.Compile(`import module namespace sv = "urn:test:fedsvc" at "fed:endpoints";
sv:tag("hi")`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(xquery.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// One result element per shard.
	if got := flatten(t, res.Value); got != "<from>hi</from>\n<from>hi</from>\n" {
		t.Errorf("federated module call = %q", got)
	}
}

func TestResolverRejectsWrongHintAndNamespace(t *testing.T) {
	x := newFed(t, Config{Shards: [][]string{{"http://unused.invalid"}}})
	e := xquery.New(xquery.WithModuleResolver(x.Resolver(context.Background())))
	if _, err := e.Compile(`import module namespace sv = "urn:test:fedsvc" at "http://somewhere/wsdl"; 1`); err == nil {
		t.Error("want error for non-federated hint")
	}
}
