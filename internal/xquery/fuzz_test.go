package xquery

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/ast"
)

// FuzzStreamingDifferential holds the streaming evaluator to two
// properties that need no second evaluator: no input that compiles ends
// in a recovered panic (an error matching xqerr.ErrInternal), and a
// top-level path that yields nodes yields them in document order
// without duplicates — dom.SortDedup, the one document-order sort,
// leaves its result unchanged, however the pipeline streamed. A step
// budget bounds runaway inputs so fuzzing stays fast.
func FuzzStreamingDifferential(f *testing.F) {
	seeds := []string{
		`(//book)[1]/@id/string()`,
		`//book[position() < 3]/title/string()`,
		`//author[1]`,
		`fn:exists(//book[price > 50])`,
		`some $b in //book satisfies $b/author = "Knuth"`,
		`every $b in //book satisfies fn:exists($b/title)`,
		`count(//book[last()])`,
		`for $b in //book order by $b/@id descending return $b/@year/string()`,
		`fn:head(fn:tail(//author))`,
		`fn:subsequence(1 to 20, 5, 3)`,
		`(1 to 50)[. mod 3 = 0][2]`,
		`string-join(//book/ancestor-or-self::*/name(), "/")`,
		`(//book, //author)[4]`,
		`//book["x"]`,
		`1 + "a"`,
		`fn:subsequence((1, 2, 3), ())`,
		`fn:subsequence((1, 2, 3), 1, ())`,
		`fn:subsequence((1, 2, 3), xs:double("-INF"), xs:double("INF"))`,
		`fn:subsequence(//book, xs:double("NaN"))`,
		`//author/..`,
		`(//title, //book)/@id`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc, err := markup.Parse(libraryXML)
	if err != nil {
		f.Fatal(err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		p, err := e.Compile(src)
		if err != nil {
			return
		}
		res, err := p.Run(RunConfig{
			ContextItem: xdm.NewNode(doc),
			MaxSteps:    200_000,
			Timeout:     time.Second,
			Now:         now,
		})
		if errors.Is(err, xqerr.ErrInternal) {
			t.Fatalf("%q: %v", src, err)
		}
		if _, isPath := p.Module().Body.(ast.Path); err != nil || !isPath {
			return
		}
		nodes := make([]*dom.Node, 0, len(res.Value))
		for _, it := range res.Value {
			n, ok := xdm.IsNode(it)
			if !ok {
				return
			}
			nodes = append(nodes, n)
		}
		sorted := dom.SortDedup(append([]*dom.Node(nil), nodes...))
		if len(sorted) != len(nodes) {
			t.Fatalf("%q: %d nodes, %d after SortDedup", src, len(nodes), len(sorted))
		}
		for i := range nodes {
			if sorted[i] != nodes[i] {
				t.Fatalf("%q: node %d is out of document order", src, i+1)
			}
		}
	})
}
