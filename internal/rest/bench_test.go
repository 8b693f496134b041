package rest_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xmldb"
)

// cartSequence is one node item: the shopping-cart page over a
// 100-product database.
func cartSequence(tb testing.TB) xdm.Sequence {
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
	src, err := apps.RenderShoppingCartXQuery(st)
	if err != nil {
		tb.Fatal(err)
	}
	page, err := markup.ParseHTML(src)
	if err != nil {
		tb.Fatal(err)
	}
	return xdm.Sequence{xdm.NewNode(page.DocumentElement())}
}

// articleSequence is what one shard ships for a collection scan: 16
// document items with their URIs, each a 40-reference article.
func articleSequence(tb testing.TB) xdm.Sequence {
	tb.Helper()
	r, err := apps.NewReference20(apps.CorpusConfig{Journals: 1, Volumes: 1, Issues: 1, Articles: 16, RefsPerArticle: 40, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	var seq xdm.Sequence
	for _, id := range r.Articles {
		doc, ok := r.Store.Get("articles/" + id + ".xml")
		if !ok {
			tb.Fatalf("generated article %s is not in the store", id)
		}
		seq = append(seq, xdm.NewNode(doc))
	}
	return seq
}

var sink int

func benchEncode(b *testing.B, seq xdm.Sequence) {
	b.SetBytes(int64(len(rest.EncodeSequence(seq))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(rest.EncodeSequence(seq))
	}
}

func benchDecode(b *testing.B, seq xdm.Sequence) {
	wire := rest.EncodeSequence(seq)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := rest.DecodeSequence(wire)
		if err != nil || len(back) != len(seq) {
			b.Fatalf("decode: %v, %d items", err, len(back))
		}
	}
}

func BenchmarkEncodeSequence(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchEncode(b, cartSequence(b)) })
	b.Run("articles", func(b *testing.B) { benchEncode(b, articleSequence(b)) })
}

func BenchmarkDecodeSequence(b *testing.B) {
	b.Run("cart", func(b *testing.B) { benchDecode(b, cartSequence(b)) })
	b.Run("articles", func(b *testing.B) { benchDecode(b, articleSequence(b)) })
}

// TestDecodeSequenceSizesItsOutputOnce: the decoded items and their
// keys are made room for once, from the envelope's child count, so the
// cost of a payload is linear in its items — no doubling step on the
// way past 128 — and nothing is left over.
func TestDecodeSequenceSizesItsOutputOnce(t *testing.T) {
	wire := func(n int) string {
		seq := make(xdm.Sequence, n)
		for i := range seq {
			seq[i] = xdm.Integer(i)
		}
		return rest.EncodeSequence(seq)
	}
	allocs := func(n int) float64 {
		w := wire(n)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := rest.DecodeSequenceKeyed(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	below, across := allocs(127)-allocs(119), allocs(135)-allocs(127)
	if across != below {
		t.Errorf("eight more items cost %.0f allocations below 128 items and %.0f across: a slice is growing by doubling", below, across)
	}
	seq, keys, err := rest.DecodeSequenceKeyed(wire(100))
	if err != nil || len(seq) != 100 || cap(seq) != 100 || len(keys) != 100 || cap(keys) != 100 {
		t.Errorf("100 items decode into len %d cap %d, keys len %d cap %d (%v)", len(seq), cap(seq), len(keys), cap(keys), err)
	}
}
