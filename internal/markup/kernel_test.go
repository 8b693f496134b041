package markup

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/dom"
)

// listing is a product page of the given number of rows: elements with
// attributes and short text, some of it escaped, three levels deep.
func listing(rows int) string {
	var b strings.Builder
	b.WriteString(`<html xmlns="http://www.w3.org/1999/xhtml"><body><table id="products">`)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, `<tr id="p%d" class="row"><td>Product %d</td><td class="price">%d.99</td><td>R&amp;D <b>new</b></td></tr>`, i, i, i)
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

// countNodes counts every node of the tree, attributes included.
func countNodes(n *dom.Node) int {
	k := 1 + len(n.Attrs())
	for _, c := range n.Children() {
		k += countNodes(c)
	}
	return k
}

// The writer kernel allocates nothing of its own: AppendXML into a
// buffer that is large enough makes no allocation at all, and Serialize
// makes two (the buffer, sized by sizeHint and grown at most once when
// escapes exceed it, and the string) whatever the size of the tree.
func TestSerializeAllocs(t *testing.T) {
	for _, rows := range []int{10, 1000} {
		src := listing(rows)
		doc := mustParse(t, src)
		buf := make([]byte, 0, 2*len(src))
		if avg := testing.AllocsPerRun(20, func() { buf = AppendXML(buf[:0], doc) }); avg != 0 {
			t.Errorf("%d rows: AppendXML into a pre-sized buffer allocates %.1f times per run, want 0", rows, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { buf = AppendHTML(buf[:0], doc) }); avg != 0 {
			t.Errorf("%d rows: AppendHTML into a pre-sized buffer allocates %.1f times per run, want 0", rows, avg)
		}
		const maxSerializeAllocs = 3
		if avg := testing.AllocsPerRun(20, func() { _ = Serialize(doc) }); avg > maxSerializeAllocs {
			t.Errorf("%d rows: Serialize allocates %.1f times per run, want <= %d at any size", rows, avg, maxSerializeAllocs)
		}
	}
}

// Parse allocates per tree, not per node: it records the tree in pooled
// scratch and builds it through one exactly sized dom.Builder — the
// document, the element, leaf and list blocks (a block above 32 KB in
// two), and one string for all the text an entity was spliced into. The
// count is pinned as a constant that holds at 10 and at 1,000 rows; it
// was 1.75 per node (the listing's row, 12 nodes with 4 attributes, took
// 19 allocations) and 3.7 in the seed's parser.
//
// The bytes are pinned beside the count: the row's 5 elements, 4 texts
// and 3 attributes cost 160, 96 and 96 bytes each (dom.Node's size
// classes, DESIGN.md §5q), 8 per list slot, the blocks' size class and
// a copy of their names and values, which the tree keeps in a string of
// its own instead of its source: 135 to 138 bytes per node, where one
// allocation per node and per list, with the values in the source, made
// it 133 to 142 and the 208-byte node 218. The pin is 135 per node plus
// 1 KB for the document and the blocks' rounding.
//
// It measures with scratch of its own, not the pool's, which the race
// detector empties at random, and with the collector off, which
// allocates on its own account.
func TestParseAllocs(t *testing.T) {
	const maxAllocs = 7
	const maxBytesPerNode, treeBytes = 135, 1 << 10
	counts := map[string]float64{}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, rows := range []int{10, 1000} {
		src := listing(rows)
		nodes := countNodes(mustParse(t, src))
		for name, mode := range map[string]Mode{"Parse": XML, "ParseHTML": HTML} {
			const runs = 10
			var p parser
			run := func() {
				if _, err := p.parse(src, mode); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(runs, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if small, ok := counts[name]; avg > maxAllocs || ok && avg != small {
				t.Errorf("%s of %d nodes allocates %.0f times, want <= %d and the same at any size (%v)", name, nodes, avg, maxAllocs, counts)
			} else {
				counts[name] = avg
				t.Logf("%s of %d nodes: %.0f allocations", name, nodes, avg)
			}
			if limit := maxBytesPerNode*float64(nodes) + treeBytes; bytes > limit {
				t.Errorf("%s of %d nodes allocates %.0f bytes, want <= %.0f (%d per node + %d)",
					name, nodes, bytes, limit, maxBytesPerNode, treeBytes)
			} else {
				t.Logf("%s of %d nodes: %.0f bytes (%.1f per node)", name, nodes, bytes, bytes/float64(nodes))
			}
		}
	}
}

// chunkRecorder is an io.Writer that notes the size of every write and
// fails from the failAt-th on.
type chunkRecorder struct {
	strings.Builder
	sizes  []int
	failAt int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.failAt > 0 && len(c.sizes)+1 >= c.failAt {
		return 0, fmt.Errorf("writer closed")
	}
	c.sizes = append(c.sizes, len(p))
	return c.Builder.Write(p)
}

// Write hands a large document over in bounded chunks, in order, and
// stops at the writer's first error.
func TestWriteStreamsInChunks(t *testing.T) {
	doc := mustParse(t, listing(3000))
	want := Serialize(doc)
	var rec chunkRecorder
	n, err := Write(&rec, doc, XML)
	if err != nil || n != int64(len(want)) || rec.String() != want {
		t.Fatalf("Write: %d bytes, err %v; want %d bytes identical to Serialize", n, err, len(want))
	}
	if len(rec.sizes) < len(want)/(2*writeChunk) {
		t.Errorf("%d bytes went out in %d writes; want chunks of about %d", len(want), len(rec.sizes), writeChunk)
	}
	for _, size := range rec.sizes {
		if size > writeChunk+1024 {
			t.Errorf("a write of %d bytes; chunks must stay near %d", size, writeChunk)
		}
	}
	failing := chunkRecorder{failAt: 3}
	n, err = Write(&failing, doc, XML)
	if err == nil || len(failing.sizes) != 2 || n != int64(failing.Len()) || !strings.HasPrefix(want, failing.String()) {
		t.Errorf("failing writer: %d bytes, err %v, %d writes accepted", n, err, len(failing.sizes))
	}
}
