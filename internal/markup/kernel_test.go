package markup

import (
	"fmt"
	"runtime"
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

// Parse allocates per node, not per byte and not per level: one
// dom.Node per element, text, comment and PI, one child list per
// element that has children, and per element with attributes one block
// holding all its attribute nodes plus one attribute list; a text or
// attribute value costs one more only when an entity is spliced into
// it. The listing's row is 12 nodes (4 of them attributes) built in 19
// allocations, 1.58 per node; the pin is k = 1.75 per node, attributes
// counted as nodes, plus a constant for the parser and the growth of
// its scratch stacks. The seed's parser made 3.7 per node.
//
// The bytes are pinned beside the count: the row's 5 elements, 3 texts
// and 4 attributes cost 176, 128 and 120 bytes each (dom.Node's size
// classes, DESIGN.md §5q) plus their lists, 157 bytes per node where the
// 208-byte node made it 218; the pin is 170 per node plus 4 KB for the
// parser.
func TestParseAllocs(t *testing.T) {
	const maxAllocsPerNode, parserAllocs = 1.75, 40
	const maxBytesPerNode, parserBytes = 170, 4 << 10
	for _, rows := range []int{10, 1000} {
		src := listing(rows)
		nodes := countNodes(mustParse(t, src))
		for name, parse := range map[string]func(string) (*dom.Node, error){"Parse": Parse, "ParseHTML": ParseHTML} {
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			avg := testing.AllocsPerRun(runs, func() {
				if _, err := parse(src); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up run of its own.
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			if limit := maxAllocsPerNode*float64(nodes) + parserAllocs; avg > limit {
				t.Errorf("%s of %d nodes allocates %.0f times, want <= %.0f (%.2f per node + %d)",
					name, nodes, avg, limit, maxAllocsPerNode, parserAllocs)
			} else {
				t.Logf("%s of %d nodes: %.0f allocations (%.2f per node)", name, nodes, avg, avg/float64(nodes))
			}
			if limit := maxBytesPerNode*float64(nodes) + parserBytes; bytes > limit {
				t.Errorf("%s of %d nodes allocates %.0f bytes, want <= %.0f (%d per node + %d)",
					name, nodes, bytes, limit, maxBytesPerNode, parserBytes)
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
