package xquery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// freshResolvers answer fn:doc("u") and fn:collection("c") with trees
// parsed anew on every call — an unstable resolver — and count what the
// run asked of them.
type freshResolvers struct {
	docCalls, collCalls, pulled int
}

var errNoSuchURI = errors.New("no such URI")

func (r *freshResolvers) doc(uri string) (*dom.Node, error) {
	r.docCalls++
	if uri != "u" {
		return nil, errNoSuchURI
	}
	return markup.Parse(`<r><x/><x/></r>`)
}

// Documents streams the two documents of "c", parsing each as it is
// pulled.
func (r *freshResolvers) Documents(uri string) (xdm.Iter, error) {
	r.collCalls++
	if uri != "c" {
		return nil, errNoSuchURI
	}
	n := 0
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if n == 2 {
			return nil, false, nil
		}
		n++
		r.pulled++
		d, err := markup.Parse(`<r><x/></r>`)
		return xdm.NewNode(d), err == nil, err
	}), nil
}

// TestDocAndCollectionAreStable: within one run fn:doc and
// fn:collection answer the same nodes for the same URI and resolve it
// once, however unstable the resolver (XQuery F&O, fn:doc), and
// collection(u)[1] still pulls one document.
func TestDocAndCollectionAreStable(t *testing.T) {
	e := New()
	for _, c := range []struct {
		src, want           string
		docCalls, collCalls int
		pulled              int // -1: not checked
	}{
		{src: `doc("u") is doc("u")`, want: "true", docCalls: 1, pulled: -1},
		{src: `count(doc("u")//x | doc("u")//x)`, want: "2", docCalls: 1, pulled: -1},
		{src: `count(for $i in 1 to 10 return doc("u")/r)`, want: "10", docCalls: 1, pulled: -1},
		{src: `collection("c")[1] is collection("c")[1]`, want: "true", collCalls: 1, pulled: 1},
		{src: `count(collection("c")//x | collection("c")//x)`, want: "2", collCalls: 1, pulled: 2},
		{src: `count(for $i in 1 to 10 return collection("c")/r)`, want: "20", collCalls: 1, pulled: 2},
		{src: `name(collection("c")[1]/*)`, want: "r", collCalls: 1, pulled: 1},
		// A join and a hoisted let over the resolvers: built once.
		{src: `count(for $a in doc("u")//x, $b in collection("c")//x where $a/self::x = $b/self::x return 1)`,
			want: "4", docCalls: 1, collCalls: 1, pulled: 2},
		{src: `count(for $i in 1 to 5 let $d := doc("u") return $d//x)`, want: "10", docCalls: 1, pulled: -1},
		// A scripting program's next statement reads the tree its apply
		// changed.
		{src: `block { insert node <x/> into doc("u")/r; count(doc("u")//x); }`, want: "3", docCalls: 1, pulled: -1},
		{src: `block { insert node <y/> into collection("c")[2]/r; count(collection("c")//y); }`,
			want: "1", collCalls: 1, pulled: 2},
	} {
		p, err := e.Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		r := &freshResolvers{}
		res, err := p.Run(RunConfig{Docs: r.doc, Collections: r})
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := FormatSequence(res.Value, nil); got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
		if r.docCalls != c.docCalls || r.collCalls != c.collCalls || c.pulled >= 0 && r.pulled != c.pulled {
			t.Errorf("%s: %d doc and %d collection resolutions, %d documents pulled; want %d, %d, %d",
				c.src, r.docCalls, r.collCalls, r.pulled, c.docCalls, c.collCalls, c.pulled)
		}
	}
}

// TestDocAvailableSharesTheMemo: fn:doc-available reads and fills the
// memo fn:doc reads, so the two agree and the URI resolves once.
func TestDocAvailableSharesTheMemo(t *testing.T) {
	e := New()
	for _, c := range []struct{ src, want string }{
		{`(doc-available("u"), doc("u") is doc("u"))`, "true true"},
		{`(doc-available("missing"), doc-available("missing"))`, "false false"},
		{`if (doc-available("missing")) then 1 else doc("missing")`, "error"},
	} {
		r := &freshResolvers{}
		res, err := e.MustCompile(c.src).Run(RunConfig{Docs: r.doc, Collections: r})
		got := "error"
		if err == nil {
			got = FormatSequence(res.Value, nil)
		} else if !strings.Contains(err.Error(), errNoSuchURI.Error()) {
			t.Errorf("%s: %v", c.src, err)
		}
		if got != c.want || r.docCalls != 1 {
			t.Errorf("%s = %s after %d resolutions, want %s after 1", c.src, got, r.docCalls, c.want)
		}
	}
}

// TestDocMemoEndsWithTheEvaluation: a context reused for a second
// evaluation (a host's page context) resolves afresh.
func TestDocMemoEndsWithTheEvaluation(t *testing.T) {
	r := &freshResolvers{}
	ctx := New().MustCompile(`count(doc("u")//x)`).NewContext(RunConfig{Docs: r.doc, Collections: r})
	for i := 1; i <= 2; i++ {
		if _, _, err := ctx.Finish("test", ctx.RunModule); err != nil {
			t.Fatal(err)
		}
		if r.docCalls != i {
			t.Errorf("after evaluation %d: %d resolutions, want %d", i, r.docCalls, i)
		}
	}
}
