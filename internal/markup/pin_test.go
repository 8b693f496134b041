//go:build go1.24

package markup

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// The parser's pooled scratch holds no string of a finished parse: once
// the tree and the source are dropped, one collection frees the source,
// although the pool keeps the scratch across that collection (a pool
// drops what it holds only at the second). Kept strings in the records,
// the namespace or open-element stacks or the start-tag scratch would
// keep the whole page alive until then.
func TestParseScratchDoesNotPinSource(t *testing.T) {
	// One P, so that the next parse finds the scratch where the last left
	// it, and no cycle under way, so that runtime.GC runs exactly one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	page := listing(20)
	for _, c := range []struct {
		name  string
		src   string
		parse func(src string) error
	}{
		{"Parse", page, func(src string) error { _, err := Parse(src); return err }},
		{"ParseHTML", page, func(src string) error { _, err := ParseHTML(src); return err }},
		{"a failed Parse", page + "<unclosed>", func(src string) error {
			if _, err := Parse(src); err == nil {
				t.Error("an unclosed element parsed")
			}
			return nil
		}},
		{"Content.Parse", "<e>" + page + "</e>", func(src string) error {
			var c Content
			_, _, err := c.Parse(src, 3, "e")
			return err
		}},
	} {
		src := strings.Clone(c.src)
		source := weak.Make(unsafe.StringData(src))
		if err := c.parse(src); err != nil {
			t.Fatal(err)
		}
		src = ""
		runtime.GC()
		if source.Value() != nil {
			t.Errorf("%s: the source outlives its parse and its tree", c.name)
		}
	}
}

// A parsed tree keeps its names and values in a string of its own, so a
// tree kept after its source is dropped — a stored document after its
// request body, a cached page after the response — does not keep the
// source alive.
func TestParsedTreeDoesNotPinSource(t *testing.T) {
	src := strings.Clone(listing(20))
	source := weak.Make(unsafe.StringData(src))
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var c Content
	item := "<e>" + strings.Clone(listing(5)) + "</e>"
	payload := weak.Make(unsafe.StringData(item))
	nodes, _, err := c.Parse(item, 3, "e")
	if err != nil {
		t.Fatal(err)
	}
	src, item, c = "", "", Content{}
	runtime.GC()
	if source.Value() != nil {
		t.Error("a parsed tree keeps its source alive")
	}
	if payload.Value() != nil {
		t.Error("the nodes of a payload keep their envelope alive")
	}
	if got := countNodes(doc); got != countNodes(mustParse(t, listing(20))) {
		t.Errorf("the tree lost nodes: %d", got)
	}
	runtime.KeepAlive(nodes)
}
