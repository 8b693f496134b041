package serve

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/fed"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xdm"
)

func startFedShard(t *testing.T, docs map[string]string) *httptest.Server {
	t.Helper()
	var nodes []*dom.Node
	for uri, src := range docs {
		d, err := markup.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		d.SetBaseURI(uri)
		nodes = append(nodes, d)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].BaseURI() < nodes[j].BaseURI() })
	srv, err := rest.NewModuleServer(fed.ShardModule, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Collections = func(uri string) ([]*dom.Node, error) { return nodes, nil }
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestPoolEvalOverFederation: a pool with Config.Fed resolves
// fn:collection by scatter-gathering over the backends, and the
// failure metrics mirror the federation counters.
func TestPoolEvalOverFederation(t *testing.T) {
	fed.ResetStats()
	a := startFedShard(t, map[string]string{"a1": `<d n="1"/>`, "a3": `<d n="3"/>`})
	b := startFedShard(t, map[string]string{"b2": `<d n="2"/>`})
	x, err := fed.New(fed.Config{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Fed: x})
	defer p.Shutdown(context.Background())

	seq, err := p.Eval(context.Background(), `for $d in fn:collection("/") return fn:base-uri($d)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var uris []string
	for _, it := range seq {
		uris = append(uris, it.String())
	}
	want := []string{"a1", "b2", "a3"}
	sort.Strings(want)
	if len(uris) != 3 || uris[0] != want[0] || uris[1] != want[1] || uris[2] != want[2] {
		t.Errorf("federated eval URIs = %v, want %v", uris, want)
	}
}

// TestPoolMetricsReflectFederation: a degraded gather (one dead
// backend, PartialResults) shows up in Metrics.Failures.
func TestPoolMetricsReflectFederation(t *testing.T) {
	fed.ResetStats()
	a := startFedShard(t, map[string]string{"a1": `<d/>`})
	dead := startFedShard(t, map[string]string{"b1": `<d/>`})
	dead.Close()
	x, err := fed.New(fed.Config{
		Shards:         [][]string{{a.URL}, {dead.URL}},
		MaxRetries:     -1,
		PartialResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Fed: x})
	defer p.Shutdown(context.Background())

	seq, err := p.Eval(context.Background(), `fn:collection("/")`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One healthy doc plus the diagnostic element.
	if len(seq) != 2 {
		t.Fatalf("want doc + diagnostic, got %d items", len(seq))
	}
	if n, ok := xdm.IsNode(seq[1]); !ok || n.Name.Local != "incomplete" {
		t.Errorf("trailing item = %v, want fed:incomplete", seq[1])
	}
	m := p.Metrics()
	if m.Failures.FedPartials == 0 {
		t.Errorf("metrics missed the partial gather: %+v", m.Failures)
	}
}

// TestPoolShipsOverFederation: Eval and page sessions hand the
// federation's shipping resolver to their runs, so a per-document query
// is evaluated by the shards — counted in Metrics beside the other
// federation counters — while a query that needs the documents still
// fetches them.
func TestPoolShipsOverFederation(t *testing.T) {
	fed.ResetStats()
	a := startFedShard(t, map[string]string{"a1": `<d n="1"><r/></d>`, "a3": `<d n="3"><r/><r/></d>`})
	b := startFedShard(t, map[string]string{"b2": `<d n="2"/>`})
	x, err := fed.New(fed.Config{Shards: [][]string{{a.URL}, {b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Fed: x})
	defer p.Shutdown(context.Background())
	ctx := context.Background()

	seq, err := p.Eval(ctx, `for $d in fn:collection("/")/d where $d/r return fn:string($d/@n)`, nil)
	if err != nil || len(seq) != 2 || seq[0].String() != "1" || seq[1].String() != "3" {
		t.Fatalf("shipped FLWOR: %v, %v; want (1, 3)", seq, err)
	}
	if got := p.Metrics().Failures.FedShipped; got != 1 {
		t.Errorf("after a shipped Eval: FedShipped = %d, want 1", got)
	}
	// A node-valued query is not shipped.
	if seq, err = p.Eval(ctx, `fn:collection("/")/d/r`, nil); err != nil || len(seq) != 3 {
		t.Fatalf("node-valued query: %d items, %v; want 3", len(seq), err)
	}
	if got := p.Metrics().Failures.FedShipped; got != 1 {
		t.Errorf("after a node-valued Eval: FedShipped = %d, want still 1", got)
	}
	// A page script's count goes the same way.
	s, err := p.Load(ctx, `<html><head><script type="text/xquery">
		insert node <p id="n">{fn:count(fn:collection("/")//r)}</p> into //body
	</script></head><body/></html>`, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var shown string
	if err := s.Do(ctx, func(h *core.Host) error {
		shown = h.Page.ElementByID("n").StringValue()
		return nil
	}); err != nil || shown != "3" {
		t.Errorf("page count = %q, %v; want 3", shown, err)
	}
	if got := p.Metrics().Failures.FedShipped; got != 2 {
		t.Errorf("after the page load: FedShipped = %d, want 2", got)
	}
}
