package fed

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rest"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// BenchmarkFedQuery runs the three query classes of the repository
// benchmark's fed_collection workload (cmd/bench/w_fed.go) over its
// corpus shape — one journal of 64 articles with 40 references each,
// 16 to each of 4 shards, every shard a store behind the stock shard
// module — shipped and with shipping switched off
// (RunConfig.DisableIndexes), through a warm program cache. Beside
// time and allocations per query it reports what crossed the wire:
//
//	go test ./internal/fed -run xxx -bench FedQuery -benchmem
func BenchmarkFedQuery(b *testing.B) {
	const shards, perShard, refs = 4, 16, 40
	var wire atomic.Int64
	var groups [][]string
	for k := 0; k < shards; k++ {
		st, err := xmldb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		if err := st.CreateCollection("/db/articles/j1"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perShard; i++ {
			n := k + shards*i
			var doc strings.Builder
			fmt.Fprintf(&doc, `<article id="a%03d" journal="j1" year="%d"><title>Article %d</title>`+
				`<abstract>summary0 word%d note0 of1 common note1 of1 babeki note2 of1</abstract><references>`, n, 1985+n%8, n, n%5)
			for r := 0; r < refs; r++ {
				fmt.Fprintf(&doc, `<ref year="%d" title="Ref %d of a%03d"/>`, 1985+(n+r)%8, r, n)
			}
			doc.WriteString(`</references></article>`)
			if err := st.PutXML(fmt.Sprintf("/db/articles/j1/a%03d.xml", n), doc.String()); err != nil {
				b.Fatal(err)
			}
		}
		ms, err := rest.NewModuleServer(ShardModule, nil)
		if err != nil {
			b.Fatal(err)
		}
		ms.Collections, ms.CollectionsIter = st.CollectionResolver(), st.CollectionIterResolver()
		h := ms.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			wire.Add(r.ContentLength)
			h.ServeHTTP(&countingWriter{ResponseWriter: w, n: &wire}, r)
		}))
		b.Cleanup(ts.Close)
		groups = append(groups, []string{ts.URL})
	}
	x, err := New(Config{Shards: groups})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if !x.canShip(ctx) {
		b.Fatal("the federation does not ship")
	}
	engine, cache := xquery.New(), xquery.NewCache(0)
	for _, class := range []struct{ name, q, want string }{
		{"where", `for $a in collection("/db/articles/j1")/article where $a/@year = "1990" return string($a/@id)`,
			"a005 a013 a021 a029 a037 a045 a053 a061"},
		{"aggregate", `count(collection("/db/articles/j1")/article/references/ref[@year = "1990"])`, "320"},
		{"ftfilter", `for $a in collection("/db/articles/j1")/article[. ftcontains "word3"] return string($a/@id)`,
			"a003 a008 a013 a018 a023 a028 a033 a038 a043 a048 a053 a058 a063"},
	} {
		for _, mode := range []struct {
			name      string
			unshipped bool
		}{{"shipped", false}, {"unshipped", true}} {
			b.Run(class.name+"/"+mode.name, func(b *testing.B) {
				cfg := xquery.RunConfig{
					Context:         ctx,
					Sequential:      true,
					Collections:     x.CollectionResolver(ctx),
					CollectionsIter: x.CollectionIterResolver(ctx),
					CollectionsShip: x.CollectionShipResolver(ctx),
					DisableIndexes:  mode.unshipped,
				}
				run := func() {
					res, err := cache.EvalQuery(engine, class.q, cfg)
					if err != nil {
						b.Fatal(err)
					}
					// Sorted: across documents the unshipped run promises
					// some document order, not the URI order.
					got := strings.Fields(xquery.FormatSequence(res.Value, nil))
					sort.Strings(got)
					if strings.Join(got, " ") != class.want {
						b.Fatalf("got %q, want %q", got, class.want)
					}
				}
				run() // compile, and check the answer, outside the timing
				b.ReportAllocs()
				wire.Store(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(wire.Load())/float64(b.N), "wire-B/op")
			})
		}
	}
}

// countingWriter adds what a handler writes to a byte count.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}
