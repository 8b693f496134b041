package xmldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
)

// scanStore fills one collection of an ephemeral store with docs
// articles of 40 references each (the fed_collection corpus shape).
func scanStore(tb testing.TB, shards, docs int) *Store {
	tb.Helper()
	st, err := Open("", WithShards(shards))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := st.CreateCollection("/db/bench"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		var doc strings.Builder
		fmt.Fprintf(&doc, `<article id="a%03d"><title>Article %d</title><references>`, i, i)
		for r := 0; r < 40; r++ {
			fmt.Fprintf(&doc, `<ref year="%d" title="Ref %d of a%03d"/>`, 1985+(i+r)%8, r, i)
		}
		doc.WriteString(`</references></article>`)
		if err := st.PutXML(fmt.Sprintf("/db/bench/a%03d.xml", i), doc.String()); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// TestScanCollectionSameAcrossLayouts: the one-goroutine-per-shard scan
// visits every document of the collection exactly once whatever the
// shard count, each shard in URI order.
func TestScanCollectionSameAcrossLayouts(t *testing.T) {
	const docs = 64
	var want []string
	for _, shards := range []int{1, 4} {
		st := scanStore(t, shards, docs)
		var mu sync.Mutex
		var seen []string
		if err := st.ScanCollection("/db/bench", func(uri string, doc *dom.Node) error {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, uri)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if shards == 1 && !sort.StringsAreSorted(seen) {
			t.Errorf("one shard scanned out of URI order: %v", seen)
		}
		sort.Strings(seen)
		if want == nil {
			want = seen
		}
		if len(seen) != docs || strings.Join(seen, " ") != strings.Join(want, " ") {
			t.Errorf("%d shards scanned %d documents %v, want the %d of one shard", shards, len(seen), seen, docs)
		}
	}
}

// BenchmarkScanCollection is the sharded scan on real per-document
// work — every document of 256 serialised, an export — over one shard
// and over four (EXPERIMENTS.md E5c).
func BenchmarkScanCollection(b *testing.B) {
	for _, shards := range []int{1, 4} {
		st := scanStore(b, shards, 256)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var bytes atomic.Int64
			for i := 0; i < b.N; i++ {
				if err := st.ScanCollection("/db/bench", func(uri string, doc *dom.Node) error {
					bytes.Add(int64(len(markup.Serialize(doc))))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(bytes.Load() / int64(b.N))
		})
	}
}
