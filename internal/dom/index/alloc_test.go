package index_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/markup"
)

// tablePage parses a page of rows that are mostly markup — nine nodes
// and one word per row — so what an index build allocates per node of
// the tree shows apart from what it allocates per name or per word.
func tablePage(t testing.TB, rows int) *dom.Node {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<html><body><table id="items">`)
	for i := 0; i < rows; i++ {
		b.WriteString(`<tr class="item"><td><input type="checkbox"/><img src="i.png"/></td><td>ok</td></tr>`)
	}
	b.WriteString(`</table></body></html>`)
	doc, err := markup.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// buildCost reports the allocations and bytes one build of the tree's
// index costs, averaged over runs, and the tree's node count.
func buildCost(doc *dom.Node, build func(*dom.Node)) (allocs, bytes float64, nodes int) {
	doc.Walk(func(n *dom.Node) bool { nodes += 1 + len(n.Attrs()); return true })
	root := doc.DocumentElement()
	rebuild := func() {
		root.SetAttr(dom.Name("lang"), "en") // a new version: the cached index is stale
		build(doc)
	}
	rebuild()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rebuild()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs, nodes
}

// TestForAllocatesNoEntryPerNode: a build allocates for what it indexes
// and keeps no entry per node of the tree. The name and id lists grow
// with the page; a map entry per node would come on top (the build that
// kept one cost 111–134 bytes per node here).
func TestForAllocatesNoEntryPerNode(t *testing.T) {
	const perNode = 20
	for _, rows := range []int{100, 2000} {
		allocs, bytes, nodes := buildCost(tablePage(t, rows), func(d *dom.Node) { index.For(d) })
		if got := bytes / float64(nodes); got > perNode {
			t.Errorf("%d rows (%d nodes): a build allocates %.1f bytes per node in %.0f allocations, want at most %d",
				rows, nodes, got, allocs, perNode)
		}
	}
}
