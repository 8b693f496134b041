package runtime_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// pathIterCorpus covers every axis; ordered and unordered filter
// primaries; bounded, sized and attribute-comparison predicates; `//`
// merges; the shapes that end the stream at a barrier; atomic final
// steps and the path errors.
var pathIterCorpus = []string{
	// Axes.
	`/r/a`, `//a`, `/descendant::b`, `/descendant-or-self::node()`, `//a/self::a`,
	`//a/@k`, `//a/@*`, `//b/..`, `//b/parent::a`, `//c/ancestor::a`, `//c/ancestor-or-self::*`,
	`//a/following-sibling::*`, `//b/preceding-sibling::node()`, `//b/following::c`,
	`//c/preceding::a`, `//a/text()`, `//comment()`, `//a/child::node()`,
	`//a/following-sibling::*[1]`, `//c/ancestor::*[2]`, `//b/preceding::*[last()]`,
	// Filter primaries, ordered and not.
	`(//a)[1]`, `(//a)[2]/b`, `(//a)[@k = "1"]`, `(//b)[position() < 3]`, `(//a)[last()]`,
	`(//a)[position() = last() - 1]`, `(//b, //a)[2]`, `(//b, //a)[@k = "2"]/c`,
	`(//c, //a)[last()]`, `(//b | //a)[3]`, `reverse(//a)[1]`, `(//a, //a)/b`,
	// Bounded, sized and attribute-comparison predicates.
	`//a[1]`, `//a[position() <= 2]/b`, `/r/a[2]`, `//a[last()]`, `//b[last() - 1]`,
	`//a/b[position() = last()]`, `//a[@k = "1"]`, `//*[@k eq "2"]/@id`, `//a[@k = "1"][2]`,
	`//b[@k != "0"]`, `//a[@k = ("0", "2")]`, `//a[1][@k = "1"]`, `//a[b][1]`,
	// `//` merges and barriers.
	`//a//b`, `//a//c[1]`, `/r//a//@k`, `//a/descendant::b`, `//a/..`, `(//b, //a)/c`,
	`//c/../b`, `//a/b/..`, `//a/ancestor::*/b`,
	// Atomic final steps, and the errors of atomics mid-path.
	`//a/@k/string()`, `(//a)[1]/name()`, `//a/string()/b`, `(1, //a)/b`, `//a/(b, 1)`,
}

// pathIterDoc generates a tree of a, b and c elements, some with a k
// attribute from a small pool, with text and comments between them.
func pathIterDoc(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(`<r>`)
	var open []string
	for i := 0; i < n; i++ {
		name := []string{"a", "b", "c"}[rng.Intn(3)]
		if rng.Intn(3) > 0 {
			fmt.Fprintf(&b, `<%s id="n%d" k="%d">`, name, i, rng.Intn(3))
		} else {
			fmt.Fprintf(&b, `<%s id="n%d">`, name, i)
		}
		open = append(open, name)
		switch rng.Intn(4) {
		case 0:
			b.WriteString(`t`)
		case 1:
			b.WriteString(`<!--x-->`)
		}
		for len(open) > 0 && rng.Intn(3) == 0 {
			fmt.Fprintf(&b, `</%s>`, open[len(open)-1])
			open = open[:len(open)-1]
		}
	}
	for len(open) > 0 {
		fmt.Fprintf(&b, `</%s>`, open[len(open)-1])
		open = open[:len(open)-1]
	}
	b.WriteString(`</r>`)
	return b.String()
}

// render prints a path result by node identity.
func render(s xdm.Sequence) string {
	var b strings.Builder
	for _, it := range s {
		if n, ok := xdm.IsNode(it); ok {
			fmt.Fprintf(&b, "%p ", n)
		} else {
			fmt.Fprintf(&b, "%s ", it)
		}
	}
	return b.String()
}

// TestPathIterMatchesPerStep holds the streaming path pipeline to the
// per-step reference on generated trees, with the indexes on and off:
// the same nodes in the same order, and an error exactly where the
// reference has one.
func TestPathIterMatchesPerStep(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var docs []xdm.Item
	for _, n := range []int{0, 1, 5, 20, 60} {
		d, err := markup.Parse(pathIterDoc(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xdm.NewNode(d))
	}
	for _, q := range pathIterCorpus {
		m, err := parser.ParseModule(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		prog, err := runtime.Compile(m, runtime.CompileConfig{Registry: funclib.Library()})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		path, ok := m.Body.(ast.Path)
		if !ok {
			t.Fatalf("%q: planned as %T, not a path", q, m.Body)
		}
		for di, doc := range docs {
			for _, noIndex := range []bool{false, true} {
				ctx := runtime.NewContext(prog)
				ctx.Item, ctx.Pos, ctx.Size, ctx.NoIndex = doc, 1, 1, noIndex
				got, gerr := ctx.Eval(path)
				want, werr := ctx.EvalPathPerStep(path)
				if (gerr != nil) != (werr != nil) {
					t.Errorf("%q doc %d noIndex %v: streamed error %v, per-step error %v", q, di, noIndex, gerr, werr)
				} else if g, w := render(got), render(want); g != w {
					t.Errorf("%q doc %d noIndex %v:\nstreamed %s\nper-step %s", q, di, noIndex, g, w)
				}
			}
		}
	}
}
