package markup_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xmldb"
)

// cartPage is the shopping-cart application's page rendered over a
// 100-product database (the benchmark's page_load page, ~14 KB).
func cartPage(tb testing.TB) string {
	tb.Helper()
	var products strings.Builder
	products.WriteString("<products>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&products, "<product><name>p%03d</name><price>%d</price></product>", i, 10+i)
	}
	products.WriteString("</products>")
	st, err := xmldb.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutXML("products.xml", products.String()); err != nil {
		tb.Fatal(err)
	}
	page, err := apps.RenderShoppingCartXQuery(st)
	if err != nil {
		tb.Fatal(err)
	}
	return page
}

// article is a generated reference20 article with 40 references.
func article(tb testing.TB) string {
	tb.Helper()
	r, err := apps.NewReference20(apps.CorpusConfig{Journals: 1, Volumes: 1, Issues: 1, Articles: 1, RefsPerArticle: 40, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	doc, ok := r.Store.Get("articles/" + r.Articles[0] + ".xml")
	if !ok {
		tb.Fatal("generated article is not in the store")
	}
	return markup.Serialize(doc)
}

// TestDifferentialAppPages: on the five application pages and a
// generated article, in both dialects, the parser builds the oracle's
// tree and the writer renders the oracle's bytes.
func TestDifferentialAppPages(t *testing.T) {
	ref, err := apps.NewReference20(apps.DefaultCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	client, err := apps.NewClientSideApp(ref, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"cart":           cartPage(t),
		"multiplication": apps.MultiplicationPage(),
		"suggest":        apps.SuggestPage("http://localhost:2003/wsdl"),
		"mashup":         apps.MashupPage("http://w.example/", "http://wde.example/", "http://cam.example/"),
		"reference20":    markup.SerializeHTML(client.Host.Page),
		"article":        article(t),
	} {
		t.Run(name, func(t *testing.T) {
			markup.DiffParse(t, src, markup.XML)
			markup.DiffParse(t, src, markup.HTML)
		})
	}
	markup.DiffSerialize(t, client.Host.Page) // a live page, after its scripts ran
}

// TestParseBytesOfAppPages pins what a parse of the benchmark's two
// document shapes allocates (BenchmarkParseXML reports the same numbers,
// in 7 objects each), the copy of their names and values the trees keep
// included: the cart page took 137.8 KB and the article 29.1 KB when
// every node was 208 bytes (DESIGN.md §5q), and 80.8 KB and 17.8 KB when
// every node and every list was an allocation of its own and the values
// were the source's (§5l). It measures as TestParseAllocs does, with scratch of its own
// and the collector off.
func TestParseBytesOfAppPages(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name  string
		src   string
		maxKB float64
	}{
		{"cart", cartPage(t), 80.6},
		{"article", article(t), 17.6},
	} {
		const runs = 20
		parse := markup.ParserOfOwn()
		if _, err := parse(c.src); err != nil { // the parser's scratch
			t.Fatal(err)
		}
		// The least of three rounds: what another goroutine allocates
		// meanwhile counts too.
		kb := math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := parse(c.src); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			kb = min(kb, float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
		}
		if kb > c.maxKB {
			t.Errorf("parsing the %s allocates %.2f KB, want at most %.1f", c.name, kb, c.maxKB)
		} else {
			t.Logf("parsing the %s allocates %.2f KB", c.name, kb)
		}
	}
}

func benchSerialize(b *testing.B, src string, appendTo func([]byte, *dom.Node) []byte) {
	doc, err := markup.ParseHTML(src)
	if err != nil {
		b.Fatal(err)
	}
	buf := appendTo(nil, doc)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendTo(buf[:0], doc)
	}
}

func benchParse(b *testing.B, src string, parse func(string) (*dom.Node, error)) {
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// serializeToString is what a caller that needs a string pays: the
// kernel plus the buffer and the copy.
func serializeToString(serialize func(*dom.Node) string) func([]byte, *dom.Node) []byte {
	return func(dst []byte, n *dom.Node) []byte { return append(dst, serialize(n)...) }
}

func BenchmarkSerializeXML(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchSerialize(b, cartPage(b), markup.AppendXML) })
	b.Run("article", func(b *testing.B) { benchSerialize(b, article(b), markup.AppendXML) })
	b.Run("cart/string", func(b *testing.B) { benchSerialize(b, cartPage(b), serializeToString(markup.Serialize)) })
}

func BenchmarkSerializeHTML(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchSerialize(b, cartPage(b), markup.AppendHTML) })
	b.Run("article", func(b *testing.B) { benchSerialize(b, article(b), markup.AppendHTML) })
	b.Run("cart/string", func(b *testing.B) { benchSerialize(b, cartPage(b), serializeToString(markup.SerializeHTML)) })
}

func BenchmarkParseXML(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchParse(b, cartPage(b), markup.Parse) })
	b.Run("article", func(b *testing.B) { benchParse(b, article(b), markup.Parse) })
}

func BenchmarkParseHTML(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchParse(b, cartPage(b), markup.ParseHTML) })
	b.Run("article", func(b *testing.B) { benchParse(b, article(b), markup.ParseHTML) })
}
