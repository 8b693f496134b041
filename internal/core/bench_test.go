package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// cartPage renders the shopping-cart application's page over an
// n-product database, the way its server half does.
func cartPage(tb testing.TB, n int) string {
	tb.Helper()
	var b strings.Builder
	b.WriteString("<products>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<product><name>product-%03d</name><price>%d</price></product>", i, 10+i)
	}
	b.WriteString("</products>")
	st, err := xmldb.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutXML("products.xml", b.String()); err != nil {
		tb.Fatal(err)
	}
	page, err := apps.RenderShoppingCartXQuery(st)
	if err != nil {
		tb.Fatal(err)
	}
	return page
}

// BenchmarkLoadPage loads a page the way a serving pool does — a fresh
// host and engine per load, one program cache shared by all of them —
// and reports the plug-in stages a visit pays before its main query
// runs: init_us (browser state, engine, script extraction) and
// compile_us (every script through the cache).
func BenchmarkLoadPage(b *testing.B) {
	for _, page := range []struct{ name, src string }{
		{"cart", cartPage(b, 100)},
		{"table", apps.MultiplicationPage()},
	} {
		b.Run(page.name, func(b *testing.B) {
			cache := xquery.NewCache(0)
			var times core.StageTimes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := core.LoadPage(page.src, "http://bench.example.com/", core.WithProgramCache(cache))
				if err != nil {
					b.Fatal(err)
				}
				times.InitPlugin += h.Times.InitPlugin
				times.CompileScripts += h.Times.CompileScripts
			}
			b.ReportMetric(float64(times.InitPlugin.Microseconds())/float64(b.N), "init_us")
			b.ReportMetric(float64(times.CompileScripts.Microseconds())/float64(b.N), "compile_us")
			if st := cache.Stats(); st.Compiles != 1 {
				b.Errorf("compiles = %d over %d loads, want 1", st.Compiles, b.N)
			}
		})
	}
}
