package runtime_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// pathIterCorpus covers every axis; ordered and unordered filter
// primaries; bounded, sized and attribute-comparison predicates; `//`
// merges; the shapes that end the stream at a sorted stage; atomic final
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
	// `//` merges and sorted stages.
	`//a//b`, `//a//c[1]`, `/r//a//@k`, `//a/descendant::b`, `//a/..`, `(//b, //a)/c`,
	`//c/../b`, `//a/b/..`, `//a/ancestor::*/b`,
	// Atomic final steps, and the errors of atomics mid-path.
	`//a/@k/string()`, `(//a)[1]/name()`, `//a/string()/b`, `(1, //a)/b`, `//a/(b, 1)`,
	// One-node primaries and sorted stages, which stream the rest of the path.
	`(//a)[1]/b`, `(/r)//a/b`, `(//z)[1]/a`, `(//a)[1]/preceding-sibling::*[1]`, `(//a)[1]//b/..`,
	`//a[@id = "n3"]/b`, `exactly-one((/r/*)[1])/b`, `(1)/a`, `(//c)[1]/ancestor::*[1]`,
	`(/r/a)[1]/b[last()]`, `zero-or-one((//b)[2])/descendant::*[@k = "1"]`,
	// Focus positions and sizes in a sorted stage, and sized predicates
	// on the reverse axes.
	`//a/position()`, `(//b, //a)/last()`, `//c/../(position(), last())`,
	`//b/preceding-sibling::*[last()]`, `//a/ancestor-or-self::*[last()]/@id`,
	// Sorted results of nested nodes, which a child step must not stream.
	`//*/../*`, `//b/ancestor::*/b`,
	// Every test of the attribute axis, which holds no namespace
	// declaration of nsPathIterDoc.
	`//@*`, `//*/@node()`, `//*/attribute()`, `//*/attribute(k)`, `//*[@*]`, `/r/attribute::node()`,
}

// pathIterVarCorpus reads $v as a path's primary and as an attribute
// comparison's key, bare and computed; pathIterVarBindings are what it
// is bound to. $s is bound to "n3" and assigned by the prolog's
// function (varPrologue), so a key naming it stays generic.
var pathIterVarCorpus = []string{
	`$v/b`, `$v//c`, `$v/..`, `$v/@k`, `$v/b/@k`, `$v//a/b`, `$v[@k = "1"]/b`, `$v/self::a//b`,
	`$v/following-sibling::*[1]`, `$v//*[@id = "n3"]/b`, `$v/b[last()]`, `$v/string()`,
	`//a[@id = $v]`, `//*[@id = $v]/b`, `//*[@id eq $v]`, `//b[@k = $v]/..`, `$v//*[@id = $v]`,
	`//c[$v = @id]//a`, `/descendant-or-self::*[@id = $v][1]`,
	// Computed keys: read once per step evaluation where they read
	// nothing of the candidate, generic where they do.
	`//a[@id = concat("n", $v)]`, `//*[@id = $v/@id]/b`, `//*[@id = string($v)]`, `//*[@k = 1 + 1]`,
	`//a[@id = ()]`, `//*[@k eq ($v, "1")]`, `//a[@k = xs:integer("x")]`, `//b[@k = ("x" cast as xs:integer)]`,
	`//a[@k = string(.)]`, `//*[@id = string(@id)]/b`, `//*[@id = $s]/b`, `//*[@id = concat($s, "")]`,
}

// varPrologue declares $v and $s, and a function that assigns $s.
const varPrologue = `declare variable $v external; declare variable $s external;
	declare sequential function local:set() { set $s := "n1"; }; `

// bindVars binds $v to v and $s to "n3".
func bindVars(ctx *runtime.Context, v xdm.Sequence) {
	ctx.Bind(dom.Name("v"), v)
	ctx.Bind(dom.Name("s"), xdm.Sequence{xdm.String("n3")})
}

// pathIterVarBindings are evaluated over each document: no node, one
// node, two nodes, strings and an integer.
var pathIterVarBindings = []string{
	`()`, `(//a)[1]`, `(//*)[position() = (2, 4)]`, `"n3"`, `(//@id)[3]`, `("n1", "n2")`, `3`,
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

// nsPathIterDoc declares namespaces, which the parser keeps as
// attributes in markup.XMLNSNamespace: prefixed and default, beside
// attributes and alone.
const nsPathIterDoc = `<r xmlns:p="urn:p"><a id="n0" k="1" xmlns:q="urn:q"><b k="2" xmlns="urn:d"/>t</a>` +
	`<a xmlns:p="urn:p2" id="n2"><c k="0"/><p:c xmlns:p="urn:p3"/></a></r>`

// pathIterDocs generates the trees the oracle tests run over, from the
// empty <r/> up, and adds nsPathIterDoc.
func pathIterDocs(t *testing.T) []xdm.Item {
	rng := rand.New(rand.NewSource(29))
	var docs []xdm.Item
	for _, n := range []int{0, 1, 5, 20, 60} {
		d, err := markup.Parse(pathIterDoc(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xdm.NewNode(d))
	}
	d, err := markup.Parse(nsPathIterDoc)
	if err != nil {
		t.Fatal(err)
	}
	return append(docs, xdm.NewNode(d))
}

// compilePath compiles q behind the prolog and returns its program and
// its planned body, which must be a path.
func compilePath(tb testing.TB, prolog, q string) (*runtime.Program, ast.Path, bool) {
	m, err := parser.ParseModule(prolog + q)
	if err != nil {
		return nil, ast.Path{}, false
	}
	prog, err := runtime.Compile(m, runtime.CompileConfig{Registry: funclib.Library()})
	if err != nil {
		tb.Fatalf("%q: %v", q, err)
	}
	path, ok := m.Body.(ast.Path)
	return prog, path, ok
}

// matchPerStep evaluates path streamed and per step, with the indexes
// on and off, in contexts that newCtx returns, and reports where one of
// them differs from the per-step evaluation without indexes: other
// nodes, another order, or another error.
func matchPerStep(path ast.Path, newCtx func(noIndex bool) *runtime.Context) string {
	streamed := func(ctx *runtime.Context, p ast.Path) (xdm.Sequence, error) { return ctx.Eval(p) }
	want, werr := newCtx(true).EvalPathPerStep(path)
	for _, c := range []struct {
		name    string
		noIndex bool
		eval    func(*runtime.Context, ast.Path) (xdm.Sequence, error)
	}{
		{"streamed", true, streamed},
		{"streamed with indexes", false, streamed},
		{"per-step with indexes", false, (*runtime.Context).EvalPathPerStep},
	} {
		got, gerr := c.eval(newCtx(c.noIndex), path)
		if g, w := errText(gerr), errText(werr); g != w {
			return fmt.Sprintf("%s: error %s, per-step error %s", c.name, g, w)
		}
		if g, w := render(got), render(want); g != w {
			return fmt.Sprintf("%s:\n%s\nper-step %s", c.name, g, w)
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPathIterMatchesPerStep holds the streaming path pipeline to the
// per-step reference on generated trees, with the indexes on and off:
// the same nodes in the same order, and the same error exactly where
// the reference has one.
func TestPathIterMatchesPerStep(t *testing.T) {
	docs := pathIterDocs(t)
	for _, q := range pathIterCorpus {
		prog, path, ok := compilePath(t, "", q)
		if !ok {
			t.Fatalf("%q: not a path", q)
		}
		for di, doc := range docs {
			diff := matchPerStep(path, func(noIndex bool) *runtime.Context {
				ctx := runtime.NewContext(prog)
				ctx.Item, ctx.Pos, ctx.Size, ctx.NoIndex = doc, 1, 1, noIndex
				return ctx
			})
			if diff != "" {
				t.Errorf("%q doc %d %s", q, di, diff)
			}
		}
	}
}

// TestPathIterMatchesPerStepWithVariables is the same oracle over paths
// that read $v, bound to no node, one node, two nodes and atomics: a
// primary of at most one node streams, and a variable id key probes the
// id map when it is one string.
func TestPathIterMatchesPerStepWithVariables(t *testing.T) {
	docs := pathIterDocs(t)
	for _, q := range pathIterVarCorpus {
		prog, path, ok := compilePath(t, varPrologue, q)
		if !ok {
			t.Fatalf("%q: not a path", q)
		}
		for di, doc := range docs {
			for _, b := range pathIterVarBindings {
				v := evalOver(t, b, doc)
				diff := matchPerStep(path, func(noIndex bool) *runtime.Context {
					ctx := runtime.NewContext(prog)
					ctx.Item, ctx.Pos, ctx.Size, ctx.NoIndex = doc, 1, 1, noIndex
					bindVars(ctx, v)
					return ctx
				})
				if diff != "" {
					t.Errorf("%q doc %d $v := %s: %s", q, di, b, diff)
				}
			}
		}
	}
}

// evalOver evaluates q with doc as the context item.
func evalOver(tb testing.TB, q string, doc xdm.Item) xdm.Sequence {
	m, err := parser.ParseModule(q)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := runtime.Compile(m, runtime.CompileConfig{Registry: funclib.Library()})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := runtime.NewContext(prog)
	ctx.Item, ctx.Pos, ctx.Size = doc, 1, 1
	v, err := ctx.RunModule()
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// The grammar FuzzPathStreamsLikePerStep draws its paths from: a start,
// then steps of an axis, a node test and predicates, with the shapes of
// pathIterCorpus and pathIterVarCorpus among them.
var (
	fuzzStarts = []string{`/`, ``, `$v`, `(//a)[1]`, `(//b, //a)`, `(/r)`, `zero-or-one((//b)[2])`,
		`(//a)[last()]`, `reverse(//c)`, `(1)`, `//a[@id = $v]`, `exactly-one((/r/*)[1])`}
	fuzzAxes = []string{`child::`, `descendant::`, `descendant-or-self::`, `self::`, `attribute::`,
		`parent::`, `ancestor::`, `ancestor-or-self::`, `following-sibling::`, `preceding-sibling::`,
		`following::`, `preceding::`, ``, `/`}
	fuzzTests = []string{`a`, `b`, `c`, `*`, `node()`, `text()`, `k`, `id`}
	fuzzPreds = []string{`[1]`, `[2]`, `[last()]`, `[@k = "1"]`, `[@id = $v]`, `[@id = "n3"]`,
		`[position() < 3]`, `[b]`, `[@k eq $v]`, `[$v = @id]`, `[. = "t"]`,
		`[@id = concat("n", $v)]`, `[@id = $v/@id]`, `[@id = string($v)]`, `[@k = 1 + 1]`, `[@id = ()]`,
		`[@k eq ($v, "1")]`, `[@k = xs:integer("x")]`, `[@k = string(.)]`, `[@id = $s]`, `[@id = string(@id)]`}
	fuzzLast = []string{`string()`, `name()`, `(b, 1)`, `..`, `position()`, `last()`, `(position(), last())`}
)

// fuzzPath spells a path from shape, one byte per choice.
func fuzzPath(shape []byte) string {
	next := func(n int) int {
		if len(shape) == 0 {
			return 0
		}
		c := int(shape[0])
		shape = shape[1:]
		return c % n
	}
	var b strings.Builder
	start := fuzzStarts[next(len(fuzzStarts))]
	b.WriteString(start)
	for i, steps := 0, 1+next(4); i < steps; i++ {
		if i > 0 || (start != `/` && start != ``) {
			b.WriteString(`/`)
		}
		if i == steps-1 && next(5) == 0 {
			b.WriteString(fuzzLast[next(len(fuzzLast))])
			break
		}
		b.WriteString(fuzzAxes[next(len(fuzzAxes))])
		b.WriteString(fuzzTests[next(len(fuzzTests))])
		for p := next(3); p > 0; p-- {
			b.WriteString(fuzzPreds[next(len(fuzzPreds))])
		}
	}
	return b.String()
}

// fuzzSeeds are FuzzPathStreamsLikePerStep's seed corpus: between them
// they spell every predicate of fuzzPreds (TestFuzzSeedsSpellEveryPredicate).
var fuzzSeeds = []struct {
	seed  int64
	shape []byte
}{
	{1, []byte{3, 0, 1, 0, 1, 0}},           // (//a)[1]/child::b
	{2, []byte{2, 0, 1, 1, 1, 1, 4}},        // $v/descendant::b[@id = $v]
	{3, []byte{10, 1, 0, 0, 0, 1, 5, 3, 0}}, // //a[@id = $v]/child::a/parent::*
	{4, []byte{5, 1, 13, 0, 0, 1, 0, 1, 0}}, // (/r)//a/child::b
	{5, []byte{1, 0, 1, 1, 0, 2, 0, 1}},     // descendant::a[1][2]
	{6, []byte{1, 0, 1, 1, 3, 2, 2, 3}},     // descendant::*[last()][@k = "1"]
	{7, []byte{1, 0, 1, 1, 3, 2, 6, 7}},     // descendant::*[position() < 3][b]
	{8, []byte{1, 0, 1, 1, 3, 2, 8, 9}},     // descendant::*[@k eq $v][$v = @id]
	{9, []byte{1, 0, 1, 1, 3, 2, 10, 11}},   // descendant::*[. = "t"][@id = concat("n", $v)]
	{10, []byte{1, 0, 1, 1, 0, 2, 12, 13}},  // descendant::a[@id = $v/@id][@id = string($v)]
	{11, []byte{1, 0, 1, 1, 3, 2, 14, 15}},  // descendant::*[@k = 1 + 1][@id = ()]
	{12, []byte{1, 0, 1, 1, 3, 2, 16, 17}},  // descendant::*[@k eq ($v, "1")][@k = xs:integer("x")]
	{13, []byte{1, 0, 1, 1, 0, 2, 18, 19}},  // descendant::a[@k = string(.)][@id = $s]
	{14, []byte{1, 0, 1, 1, 3, 2, 5, 0}},    // descendant::*[@id = "n3"][1]
	{15, []byte{1, 0, 1, 1, 3, 1, 20}},      // descendant::*[@id = string(@id)]
}

// TestFuzzSeedsSpellEveryPredicate: make fuzz-smoke starts from every
// predicate shape the grammar has, computed keys included.
func TestFuzzSeedsSpellEveryPredicate(t *testing.T) {
	var paths []string
	for _, s := range fuzzSeeds {
		paths = append(paths, fuzzPath(s.shape))
	}
	for _, p := range fuzzPreds {
		if !slices.ContainsFunc(paths, func(q string) bool { return strings.Contains(q, p) }) {
			t.Errorf("no seed spells %s: %q", p, paths)
		}
	}
}

// FuzzPathStreamsLikePerStep holds a random path of the corpus grammar,
// with $v bound to one of pathIterVarBindings, to the per-step
// reference over a pathIterDoc tree (see matchPerStep).
func FuzzPathStreamsLikePerStep(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		q := fuzzPath(shape)
		prog, path, ok := compilePath(t, varPrologue, q)
		if !ok {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		d, err := markup.Parse(pathIterDoc(rng, rng.Intn(30)))
		if err != nil {
			t.Fatal(err)
		}
		doc := xdm.NewNode(d)
		b := pathIterVarBindings[rng.Intn(len(pathIterVarBindings))]
		v := evalOver(t, b, doc)
		diff := matchPerStep(path, func(noIndex bool) *runtime.Context {
			ctx := runtime.NewContext(prog)
			ctx.Item, ctx.Pos, ctx.Size, ctx.NoIndex = doc, 1, 1, noIndex
			bindVars(ctx, v)
			return ctx
		})
		if diff != "" {
			t.Errorf("%q $v := %s: %s", q, b, diff)
		}
	})
}

// TestAxisWalkersMatchAxisNodes holds the pipeline's walker of every
// axis to the reference's AxisNodes, from every node of pathIterDoc
// trees — the document node, elements, attributes, text and comments —
// and of a subtree detached from a copy, once with the trees' labels
// current and once with them stale after two new first children moved
// every sibling index.
func TestAxisWalkersMatchAxisNodes(t *testing.T) {
	for di, doc := range pathIterDocs(t) {
		d, _ := xdm.IsNode(doc)
		roots := []*dom.Node{d}
		if kids := d.Clone().DocumentElement().Children(); len(kids) > 0 {
			kids[0].Detach()
			roots = append(roots, kids[0])
		}
		for ri, root := range roots {
			for _, stale := range []bool{false, true} {
				if stale {
					// Two new first children: every index under host
					// moves, and both carry the same never-written label.
					host := root
					if root.Type == dom.DocumentNode {
						host = root.DocumentElement()
					}
					for range 2 {
						if err := host.PrependChild(dom.NewElement(dom.Name("a"))); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					root.Label()
				}
				var nodes []*dom.Node
				root.Walk(func(x *dom.Node) bool {
					nodes = append(nodes, x)
					nodes = append(nodes, x.Attrs()...)
					return true
				})
				// Walk first: the reference reads no labels either, but
				// nothing may relabel the tree before the walkers ran.
				var got [][]*dom.Node
				for _, n := range nodes {
					for axis := ast.AxisChild; axis <= ast.AxisAncestorOrSelf; axis++ {
						got = append(got, runtime.WalkAxis(n, axis))
					}
				}
				i := 0
				for _, n := range nodes {
					for axis := ast.AxisChild; axis <= ast.AxisAncestorOrSelf; axis++ {
						if want := runtime.AxisNodes(n, axis); !slices.Equal(got[i], want) {
							t.Errorf("doc %d root %d stale %v: %s::* from %s %q: walker %p, reference %p",
								di, ri, stale, axis, n.Type, n.Name.Local, got[i], want)
						}
						i++
					}
				}
			}
		}
	}
}
