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
	"time"

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
					// Both runs answer in document-URI order.
					if got := xquery.FormatSequence(res.Value, nil); got != class.want {
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

// stragglerTopology serves shardDocs from four shards of a primary and
// a replica each; shard 0's primary answers only after stall — the
// stalled backend hedging exists for, not a modelled cost. It returns
// the same federation twice, without and with hedging.
func stragglerTopology(tb testing.TB, stall time.Duration) (unhedged, hedged *Executor) {
	tb.Helper()
	straggle := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	var groups [][]string
	for k, docs := range shardDocs() {
		mw := straggle
		if k != 0 {
			mw = nil
		}
		groups = append(groups, []string{startShard(tb, docs, mw).URL, startShard(tb, docs, nil).URL})
	}
	return newFed(tb, Config{Shards: groups, DisableHedge: true}),
		newFed(tb, Config{Shards: groups, HedgeDelay: 3 * time.Millisecond})
}

// TestHedgedRequestBeatsStalledPrimary: with one primary of four stalled,
// the unhedged federation waits the stall out and the hedged one does
// not, every hedged call fires a hedge that wins, and both merge the
// byte-identical URI-ordered collection. Each hedged call has to finish
// in half the stall — the 2x floor under the 8.6x EXPERIMENTS.md E5f
// records at p99 (BenchmarkHedging is the pair behind that number).
func TestHedgedRequestBeatsStalledPrimary(t *testing.T) {
	const stall, calls = 200 * time.Millisecond, 10
	unhedged, hedged := stragglerTopology(t, stall)
	ctx := context.Background()
	want := oracle(t, shardDocs())

	start := time.Now()
	seq, err := unhedged.Collection(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(t, seq); got != want {
		t.Fatalf("unhedged merge:\n%s\nwant\n%s", got, want)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("the unhedged call took %v: the %v straggler was not on its path", d, stall)
	}

	ResetStats()
	for i := 0; i < calls; i++ {
		start := time.Now()
		seq, err := hedged.Collection(ctx, "/")
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > stall/2 {
			t.Errorf("hedged call %d took %v, want under half the %v stall", i, d, stall)
		}
		if got := flatten(t, seq); got != want {
			t.Fatalf("hedged merge:\n%s\nwant\n%s", got, want)
		}
	}
	// The straggler's hedge fires and wins on every call; a healthy
	// shard that takes longer than the hedge delay may add its own.
	if s := Snapshot(); s.Hedges < calls || s.HedgeWins < calls || s.BreakerOpens != 0 {
		t.Errorf("%d hedges, %d wins, %d breaker opens over %d calls, want a winning hedge per call at least and no open breaker",
			s.Hedges, s.HedgeWins, s.BreakerOpens, calls)
	}
}

// BenchmarkHedging is the pair behind E5f: collection("/") over the
// straggler topology (40 ms stall, 3 ms hedge delay), unhedged and
// hedged, with the p99 beside the mean.
//
//	go test ./internal/fed -run '^$' -bench Hedging -benchtime 100x
func BenchmarkHedging(b *testing.B) {
	unhedged, hedged := stragglerTopology(b, 40*time.Millisecond)
	ctx := context.Background()
	for _, side := range []struct {
		name string
		x    *Executor
	}{{"unhedged", unhedged}, {"hedged", hedged}} {
		b.Run(side.name, func(b *testing.B) {
			lat := make([]time.Duration, b.N)
			for i := range lat {
				start := time.Now()
				if _, err := side.x.Collection(ctx, "/"); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(start)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[(len(lat)*99+99)/100-1].Microseconds()), "p99-us")
		})
	}
}
